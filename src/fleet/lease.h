// Lease table: the fleet coordinator's unit-of-work state machine
// (docs/ROBUSTNESS.md).
//
// A fleet campaign is partitioned into `units` case-partition shards
// (a PlanShards plan with a fixed unit count, independent of the worker
// count), and each unit moves through
//
//     pending ──Grant──▶ leased ──Complete──▶ done
//        ▲                  │
//        └──ReclaimExpired──┘  (missed heartbeats / worker death)
//           ReclaimWorker
//
// A lease carries a deadline; Heartbeat pushes it forward. A unit granted
// after it was reclaimed at least once counts as *stolen* — the surviving
// worker picked up a dead peer's work. All transitions are driven by
// explicit `now_ns` arguments (no clock reads inside), so the tests walk
// the state machine with a fake clock and the coordinator stays
// deterministic per poll iteration.
#ifndef SRC_FLEET_LEASE_H_
#define SRC_FLEET_LEASE_H_

#include <cstdint>
#include <vector>

namespace soft {
namespace fleet {

enum class UnitState { kPending, kLeased, kDone };

// One unit's row in the status endpoint / tests' view of the table.
struct LeaseView {
  int unit = 0;
  UnitState state = UnitState::kPending;
  int worker = -1;          // holder (leased) or completer (done); -1 none
  int cases = 0;            // last heartbeat progress
  uint64_t deadline_ns = 0; // lease expiry (leased only)
  bool reclaimed = false;   // was reclaimed at least once
};

// uint64_t: a week-long campaign heartbeating every few hundred ms would
// wrap an int32 counter; these feed FleetStats and the metrics registry
// unconverted.
struct LeaseCounters {
  uint64_t granted = 0;
  uint64_t reclaimed = 0;
  uint64_t stolen = 0;     // grants of previously-reclaimed units
  uint64_t heartbeats = 0; // accepted (non-stale) heartbeats
  uint64_t completed = 0;
};

class LeaseTable {
 public:
  explicit LeaseTable(int units);

  // Leases the lowest pending unit to `worker` until now + lease_ns.
  // Returns the unit index, or -1 when nothing is pending.
  int Grant(int worker, uint64_t now_ns, uint64_t lease_ns);

  // Refreshes the lease deadline and progress. False (and no refresh) when
  // `worker` no longer holds `unit` — the stale-heartbeat case after a
  // reclaim+steal.
  bool Heartbeat(int unit, int worker, int cases, uint64_t now_ns, uint64_t lease_ns);

  // Marks the unit done. False when stale: `worker` does not hold the lease
  // (it was reclaimed and possibly re-granted) or the unit is already done —
  // the caller then discards the duplicate result.
  bool Complete(int unit, int worker);

  // Marks the unit done regardless of lease state (resume admission of a
  // spooled result, coordinator-local execution).
  void ForceComplete(int unit, int worker);

  // Returns every leased unit whose deadline passed; they are back in
  // pending (flagged reclaimed) when this returns.
  std::vector<int> ReclaimExpired(uint64_t now_ns);

  // Returns every unit leased to `worker`, all back in pending — the
  // worker-death path.
  std::vector<int> ReclaimWorker(int worker);

  // Earliest lease deadline across leased units; 0 when none are leased.
  uint64_t NextDeadlineNs() const;

  bool AllDone() const { return done_ == static_cast<int>(slots_.size()); }
  int units() const { return static_cast<int>(slots_.size()); }
  int pending() const;
  int leased() const;
  int done() const { return done_; }
  const LeaseCounters& counters() const { return counters_; }
  std::vector<LeaseView> Snapshot() const;

 private:
  struct Slot {
    UnitState state = UnitState::kPending;
    int worker = -1;
    int cases = 0;
    uint64_t deadline_ns = 0;
    bool reclaimed = false;
  };
  std::vector<Slot> slots_;
  LeaseCounters counters_;
  int done_ = 0;
};

}  // namespace fleet
}  // namespace soft

#endif  // SRC_FLEET_LEASE_H_
