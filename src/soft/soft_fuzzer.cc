#include "src/soft/soft_fuzzer.h"

#include <algorithm>
#include <map>
#include <set>

#include "src/dialects/dialects.h"
#include "src/soft/expr_collection.h"
#include "src/soft/logic_oracle.h"
#include "src/soft/parallel_runner.h"
#include "src/soft/seeds.h"
#include "src/sqlparser/parser.h"
#include "src/telemetry/telemetry.h"
#include "src/util/rng.h"

namespace soft {
namespace {

bool StatementIsSelect(const std::string& sql) {
  const Result<Statement> parsed = ParseStatement(sql);
  return parsed.ok() && parsed->is_select();
}

// Oracles need the simulated engine: a forked kReal worker cannot host the
// differential siblings (CampaignOptions::logic_oracles).
bool LogicMode(const CampaignOptions& campaign) {
  return !campaign.logic_oracles.empty() &&
         campaign.crash_realism == CrashRealism::kSimulated;
}

uint64_t FnvFold(uint64_t digest, const std::string& bytes) {
  for (const unsigned char c : bytes) {
    digest = (digest ^ c) * 0x100000001B3ull;
  }
  return (digest ^ 0xFF) * 0x100000001B3ull;  // separator: fields stay apart
}

}  // namespace

bool CasePool::Matches(const std::string& dialect_name, const CampaignOptions& campaign,
                       const SoftOptions& soft_options) const {
  return dialect == dialect_name && seed == campaign.seed &&
         logic_mode == LogicMode(campaign) && options == soft_options;
}

std::shared_ptr<const CasePool> BuildCasePool(const Database& db,
                                              const CampaignOptions& campaign,
                                              const SoftOptions& soft_options) {
  auto pool = std::make_shared<CasePool>();
  pool->dialect = db.config().name;
  pool->seed = campaign.seed;
  pool->logic_mode = LogicMode(campaign);
  pool->options = soft_options;

  // Step 1: function-expression collection (documentation + suite).
  const std::vector<std::string> suite = SeedSuiteFor(pool->dialect);
  FunctionCorpus corpus = CollectCorpus(db, suite);
  pool->prerequisites = std::move(corpus.prerequisites);

  // Step 2: pattern-based generation.
  PatternEngine engine(db, campaign.seed, soft_options.patterns);
  if (soft_options.extremes_only_pool) {
    engine.set_pool(GenerateExtremesOnlyPool());
  }
  std::vector<GeneratedCase> cases;
  // In logic mode the seeded wrong-result corpus's PoCs lead the case list,
  // so even small budgets exercise every LogicBugSpec (the injectable
  // ground-truth analogue of the crash corpus-replay prefix below).
  if (pool->logic_mode) {
    for (const LogicBugSpec& spec : db.faults().AllLogicBugs()) {
      Result<std::string> poc = BuildLogicPocSql(db, spec);
      if (poc.ok()) {
        cases.push_back(GeneratedCase{std::move(poc).value(), "logic-seed"});
      }
    }
  }
  // The suite's own queries and every collected expression run first (the
  // corpus replay: SOFT validates each harvested function expression before
  // mutating it), warming function-trigger coverage across the catalog.
  for (const std::string& seed : suite) {
    cases.push_back(GeneratedCase{seed, "seed"});
  }
  for (const std::string& expr : corpus.expressions) {
    cases.push_back(GeneratedCase{"SELECT " + expr, "seed"});
  }
  for (const std::string& expr : corpus.expressions) {
    if (soft_options.only_patterns.empty()) {
      engine.GenerateAll(expr, corpus.expressions, cases);
    } else {
      for (const std::string& pattern : soft_options.only_patterns) {
        engine.GenerateOne(pattern, expr, corpus.expressions, cases);
      }
    }
  }
  // Deduplicate by statement text (the patterns overlap on simple seeds).
  std::set<std::string> seen;
  pool->cases.reserve(cases.size());
  for (GeneratedCase& test_case : cases) {
    if (seen.insert(test_case.sql).second) {
      pool->cases.push_back(std::move(test_case));
    }
  }
  // Keep the corpus-replay prefix in place; shuffle only the generated tail
  // so the budget samples patterns and seeds uniformly (Fisher-Yates with
  // the campaign RNG).
  std::vector<GeneratedCase>& order = pool->cases;
  size_t first_generated = 0;
  while (first_generated < order.size() &&
         (order[first_generated].pattern == "seed" ||
          order[first_generated].pattern == "logic-seed")) {
    ++first_generated;
  }
  Rng rng(campaign.seed);
  for (size_t i = order.size(); i > first_generated + 1; --i) {
    const size_t j = first_generated + rng.NextBelow(i - first_generated);
    std::swap(order[i - 1], order[j]);
  }

  uint64_t digest = 0xCBF29CE484222325ull;
  for (const std::string& prereq : pool->prerequisites) {
    digest = FnvFold(digest, prereq);
  }
  for (const GeneratedCase& test_case : order) {
    digest = FnvFold(FnvFold(digest, test_case.pattern), test_case.sql);
  }
  pool->digest = digest;
  return pool;
}

std::shared_ptr<const CasePool> BuildCasePool(const std::string& dialect,
                                              const CampaignOptions& campaign,
                                              const SoftOptions& soft_options) {
  const std::unique_ptr<Database> db = MakeDialect(dialect);
  return db == nullptr ? nullptr : BuildCasePool(*db, campaign, soft_options);
}

SoftFuzzer::SoftFuzzer(SoftOptions options, std::shared_ptr<const CasePool> pool)
    : soft_options_(std::move(options)), pool_(std::move(pool)) {}

CampaignResult SoftFuzzer::Run(Database& db, const CampaignOptions& options) {
  CampaignResult result;
  result.tool = name();
  result.dialect = db.config().name;
  // Campaign-scoped telemetry: stage latencies recorded by the engine and
  // the per-pattern counters below land in result.telemetry. Observational
  // only — no RNG draw or control-flow decision reads telemetry state, so
  // results are bit-identical with recording on or off.
  const telemetry::ScopedCollector telem(&result.telemetry);
  // Span tracer (opt-in via trace_sample) and crash flight recorder (kReal
  // campaigns only) — both strictly observational, like the collector.
  const trace::ScopedStatementTracer tracer(
      options.trace_sample > 0 ? &result.trace : nullptr, result.dialect,
      options.shard_index, options.trace_sample);
  const trace::ScopedFlightRecorder flight(options.crash_realism ==
                                           CrashRealism::kReal);

  const size_t expected_bugs = db.faults().bug_count();
  db.set_statement_limits(options.statement_limits);

  // Steps 1 and 2: the executor's shared pool, or one built here.
  std::shared_ptr<const CasePool> pool = pool_;
  if (pool == nullptr || !pool->Matches(result.dialect, options, soft_options_)) {
    pool = BuildCasePool(db, options, soft_options_);
  }
  const std::vector<GeneratedCase>& cases = pool->cases;

  // Logic-bug oracle mode (CampaignOptions::logic_oracles). Oracles exist
  // before the prerequisites run so the differential siblings replay them and
  // start in lockstep with the campaign database.
  std::vector<std::unique_ptr<LogicOracle>> oracles;
  if (pool->logic_mode) {
    oracles = MakeLogicOracles(options.logic_oracles, result.dialect);
  }
  const auto observe_side_effect = [&](const std::string& sql) {
    for (const std::unique_ptr<LogicOracle>& oracle : oracles) {
      oracle->ObserveSideEffect(sql);
    }
  };

  // Prerequisites: tables the suite queries depend on (Finding 4).
  for (const std::string& prereq : pool->prerequisites) {
    db.Execute(prereq);
    observe_side_effect(prereq);
  }
  if (pool->logic_mode) {
    for (const std::string& prereq : LogicOraclePrerequisites()) {
      db.Execute(prereq);
      observe_side_effect(prereq);
    }
    // Arm the seeded wrong-result corpus only now: every DDL/INSERT above ran
    // clean, so stored rows are identical across the campaign database and
    // the sibling engines.
    db.set_logic_faults_enabled(true);
  }

  // Per-pattern pool census (aggregated locally so the hook fires once per
  // pattern, not once per case). Counted once per campaign: a partition
  // shard other than 0 (a fleet unit other than 0) executes the same pool,
  // so merged `generated` equals the pool at any shard count.
  if (options.shard_index == 0 && telemetry::CollectorInstalled()) {
    std::map<std::string, uint64_t> pool_census;
    for (const GeneratedCase& test_case : cases) {
      ++pool_census[test_case.pattern];
    }
    for (const auto& [pattern, count] : pool_census) {
      telemetry::CountGenerated(pattern, count);
    }
  }

  // Step 3: execution and crash detection. A case-partitioned shard
  // (options.shard_count > 1, see campaign.h) executes the interleave of the
  // global case order: indices below the budget with
  // index % shard_count == shard_index. The serial campaign is the
  // shard_count == 1 special case of the same loop, so the union over K
  // shards is exactly the serial campaign's executed prefix.
  const size_t shard_count = options.shard_count > 1
                                 ? static_cast<size_t>(options.shard_count)
                                 : size_t{1};
  const size_t shard_index =
      options.shard_index > 0 ? static_cast<size_t>(options.shard_index) : size_t{0};
  const size_t budget = options.max_statements > 0
                            ? static_cast<size_t>(options.max_statements)
                            : size_t{0};
  std::set<int> found_ids;
  std::set<int> logic_found_ids;
  for (size_t case_index = shard_index;
       case_index < cases.size() && case_index < budget; case_index += shard_count) {
    const GeneratedCase& test_case = cases[case_index];
    ++result.statements_executed;
    telemetry::CountExecuted(test_case.pattern);
    // Flight ring entry and (sampled) statement span open before Execute:
    // a real-signal crash inside Execute leaves exactly this context for the
    // announcement to flush.
    trace::FlightBeginStatement(result.statements_executed, test_case.pattern,
                                test_case.sql);
    trace::BeginStatement(result.statements_executed, test_case.pattern);
    const StatementResult r = db.Execute(test_case.sql);
    bool stop = false;
    std::string_view outcome = "ok";
    if (r.crashed()) {
      outcome = "crash";
      ++result.crashes_observed;
      telemetry::CountCrash(test_case.pattern);
      trace::AnnotateStatement("bug_id", std::to_string(r.crash->bug_id));
      if (found_ids.insert(r.crash->bug_id).second) {
        telemetry::CountBugDeduped(test_case.pattern);
        trace::AnnotateStatement("first_witness", "1");
        FoundBug bug;
        bug.crash = *r.crash;
        bug.poc_sql = test_case.sql;
        bug.found_by = test_case.pattern;
        bug.statements_until_found = result.statements_executed;
        bug.found_wall_ns =
            static_cast<int64_t>(telemetry::WallSinceCollectorStartNs());
        bug.wall_recorded = telemetry::CollectorInstalled();
        result.unique_bugs.push_back(std::move(bug));
      }
      stop = options.stop_when_all_bugs_found && found_ids.size() >= expected_bugs;
    } else if (r.status.code() == StatusCode::kTimeout) {
      // The statement watchdog killed the query at its deadline: a clean
      // termination, counted separately from crashes and false positives.
      outcome = "timeout";
      ++result.watchdog_timeouts;
      telemetry::CountTimeout(test_case.pattern);
    } else if (r.status.code() == StatusCode::kResourceExhausted) {
      // The server killed the query on a resource limit: initially flagged
      // as a crash by the detector, later triaged as a false positive
      // (Section 7.3's REPEAT('a', 9999999999) class).
      outcome = "resource_exhausted";
      ++result.false_positives;
      telemetry::CountFalsePositive(test_case.pattern);
    } else if (!r.ok()) {
      outcome = "sql_error";
      ++result.sql_errors;
      telemetry::CountSqlError(test_case.pattern);
    }
    // Logic-oracle examination: successful SELECTs are compared for
    // wrong-result divergence; successful writes are mirrored into the
    // differential siblings so they stay in lockstep with this shard's
    // database. Verdicts come exclusively from result comparison —
    // r.logic_hits is ground truth consulted only AFTER an oracle flags,
    // to separate attributed bugs from false positives.
    if (!oracles.empty() && outcome == "ok") {
      // Oracle re-executions happen while this statement's trace span is
      // open; the scoped guard suppresses their stage spans so the traced
      // pipeline stays the statement's own (and span IDs stay unique per
      // ordinal). The guard is released before the verdict annotation,
      // which needs the span open again.
      const std::string verdict = [&]() -> std::string {
        const trace::ScopedOracleExecution suppress_oracle_stage_spans;
        if (!StatementIsSelect(test_case.sql)) {
          observe_side_effect(test_case.sql);
          return "skipped";
        }
        bool any_in_scope = false;
        for (const std::unique_ptr<LogicOracle>& oracle : oracles) {
          const LogicOracle::Verdict v = oracle->Check(db, test_case.sql, r);
          if (!v.checked) {
            continue;
          }
          any_in_scope = true;
          ++result.logic_checks;
          telemetry::CountLogicCheck(test_case.pattern);
          if (!v.divergence) {
            continue;
          }
          ++result.logic_divergences;
          const std::string oracle_name(oracle->name());
          if (r.logic_hits.empty()) {
            ++result.logic_false_positives;
            return "false_positive:" + oracle_name;
          }
          // First flagging oracle wins — deterministic attribution.
          telemetry::CountLogicBug(test_case.pattern);
          for (const LogicBugInfo& hit : r.logic_hits) {
            if (!logic_found_ids.insert(hit.bug_id).second) {
              continue;
            }
            FoundLogicBug logic_bug;
            logic_bug.info = hit;
            logic_bug.oracle = oracle_name;
            logic_bug.poc_sql = test_case.sql;
            logic_bug.witness = v.witness;
            logic_bug.detail = v.detail;
            logic_bug.case_index = static_cast<int>(case_index);
            logic_bug.statements_until_found = result.statements_executed;
            result.logic_bugs.push_back(std::move(logic_bug));
          }
          return "logic_bug:" + oracle_name;
        }
        return any_in_scope ? "consistent" : "skipped";
      }();
      trace::AnnotateStatement("oracle_verdict", verdict);
    }
    trace::EndStatement(outcome);
    trace::FlightEndStatement(outcome);
    if (options.progress) {
      options.progress(result.statements_executed);
    }
    if (stop) {
      break;
    }
  }

  // Canonical logic-bug order: the global case index is shard-invariant, so
  // serial and merged sharded campaigns agree on it (statements_until_found
  // and shard are shard-local attribution detail, excluded from digests).
  std::sort(result.logic_bugs.begin(), result.logic_bugs.end(),
            [](const FoundLogicBug& a, const FoundLogicBug& b) {
              return a.case_index != b.case_index ? a.case_index < b.case_index
                                                  : a.info.bug_id < b.info.bug_id;
            });

  result.functions_triggered = db.coverage().TriggeredFunctionCount();
  result.branches_covered = db.coverage().CoveredBranchCount();
  return result;
}

CampaignResult RunShardedSoftCampaign(const std::string& dialect,
                                      const CampaignOptions& options, int shards,
                                      SoftOptions soft_options, ShardMode mode) {
  // Partition shards share the campaign's pool; split-budget shards each
  // draw their own seed, so each builds its own.
  std::shared_ptr<const CasePool> pool;
  if (mode == ShardMode::kPartitionCases) {
    pool = BuildCasePool(dialect, options, soft_options);
  }
  return RunShardedCampaign(
      [soft_options, pool] { return std::make_unique<SoftFuzzer>(soft_options, pool); },
      dialect, options, shards, mode);
}

}  // namespace soft
