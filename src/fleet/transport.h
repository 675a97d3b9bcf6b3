// Fleet socket plumbing: one endpoint abstraction over the two transports
// the coordinator serves — the original same-host Unix-domain socket and a
// TCP listener for true multi-host fleets (docs/ROBUSTNESS.md, "Multi-host
// fleet transport").
//
// Both transports carry the identical framed protocol (src/soft/wire.h);
// nothing above this layer knows which one a connection arrived over. TCP
// specifics handled here: SO_REUSEADDR on listeners, TCP_NODELAY on every
// connection (frames are small and latency-sensitive), and port-0 binds
// resolve their kernel-assigned port via getsockname so the coordinator can
// hand workers the real address before forking them.
#ifndef SRC_FLEET_TRANSPORT_H_
#define SRC_FLEET_TRANSPORT_H_

#include <string>

#include "src/util/status.h"

namespace soft {
namespace fleet {

// Where a fleet coordinator listens / a worker or status client connects.
// Exactly one of the two fields is set; `tcp` wins when both are.
struct Endpoint {
  std::string socket_path;  // Unix-domain socket path
  std::string tcp;          // "host:port" (listen side: port 0 = kernel picks)

  bool empty() const { return socket_path.empty() && tcp.empty(); }
};

// Splits "host:port" at the last ':' (IPv6 literals keep their colons in
// the host part). False when either half is empty.
bool ParseHostPort(const std::string& spec, std::string& host, std::string& port);

// Binds + listens on the endpoint. For TCP, `bound` (when non-null) receives
// the actual "host:port" after port-0 resolution — the address workers must
// connect to. UDS listeners unlink any stale socket file first.
Result<int> ListenOn(const Endpoint& endpoint, std::string* bound);

// One connection attempt (the caller owns retry/backoff). The error message
// for a dead coordinator contains "no fleet coordinator listening".
Result<int> ConnectOnce(const Endpoint& endpoint);

// Per-connection socket tuning on a freshly accepted fd (TCP_NODELAY; a
// silent no-op on Unix-domain sockets).
void TuneAccepted(int fd);

}  // namespace fleet
}  // namespace soft

#endif  // SRC_FLEET_TRANSPORT_H_
