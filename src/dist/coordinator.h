// The distributed truth-discovery coordinator: a net::Node that drives the
// iterative methods over a fleet of ShardNodes purely through serialized
// messages (crowd::StatsEnvelope + dist/stats_wire.h bodies) over any
// net::Transport: the simulator's Network in process, or a SocketTransport
// to shard processes.
//
// Determinism contract: with zero link drops and no churn, a K-shard
// distributed round is bitwise identical to the in-process
// TruthDiscovery::run_sharded over the same matrix at the same K. Each
// method's loop is written once (TruthDiscovery::run_folds, truth/): the
// in-process run drives it over a truth::LocalBackend, a close drives it
// over a RemoteBackend (coordinator.cpp). RemoteBackend sends each backend
// call as a request built from its row of the op table (stats_wire.h): a
// chained fold threads through the live shards, and a register write is
// queued for each of them. The owning shard runs the same row on its own
// LocalBackend. The coordinator holds nothing per method.
//
// Frames: a register write is queued per live shard and rides as a kBatch
// prefix on the next frame that shard receives (a chain hop, a gather, the
// final collect); writes still queued when a loop enters its iterations go
// out on their own, so DistributedOutcome::iteration_* count the loop alone.
//
// Report routing: an upload is staged for its owning shard, and each shard's
// staged uploads leave as one crowd::kReportBatch message. The first upload
// staged in a transport turn schedules a zero-delay flush, which fires in
// the next poll()/run_until_idle() — exactly when a per-report frame sent now
// would have left (the Transport::send contract), so batching never delays a
// report. A shard's batch also goes out as soon as its staged bytes reach
// 64 KiB, when the upload type changes (a batch holds one kind), and at the
// top of close_round. Loss stays per report: a batch the transport counts
// undeliverable charges every report in it.
//
// Failure model: every RPC has a timeout; a timed-out request is resent with
// the SAME op id (shards execute exactly-once behind a monotonic op-id
// watermark: equal ids replay the memoized response, older ids — delayed
// duplicates, abandoned pre-re-plan requests — are dropped), so stragglers
// and jitter reordering cost latency, never correctness. A shard that
// exhausts max_resends mid-round, or whose reply cannot be used (it fails to
// decode, has the wrong size, or a batched reply carries a body count other
// than the items sent — counted as malformed), is declared failed and the
// round closes DEGRADED instead of aborting: the failed shard is excluded,
// its routed reports are accounted as lost (exactly: routed minus
// already-counted undeliverable), the close re-runs over the survivors —
// whose finalize is idempotent, so retried phases re-serve summaries without
// re-ingesting — and the outcome carries degraded/excluded_shards/
// reports_lost. The degraded result is bitwise identical to an in-process
// run over the survivors' concatenated sub-matrices (shard ranges stay
// block-aligned).
// The excluded shard also leaves the roster, so the next begin_round
// re-plans and re-routes its users; degraded rounds do not update the warm
// state (the excluded users' weights are gone — the next full round seeds
// from the last complete result via the stable-id remap). The round aborts
// (completed=false) only when no shard survives.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "crowd/campaign.h"
#include "crowd/protocol.h"
#include "crowd/server.h"
#include "data/sharding.h"
#include "dist/stats_wire.h"
#include "net/transport.h"
#include "truth/categorical.h"
#include "truth/catd.h"
#include "truth/crh.h"
#include "truth/gtm.h"
#include "truth/interface.h"

namespace dptd::dist {

class RemoteBackend;

struct CoordinatorConfig {
  net::NodeId id = 9'000'000;  ///< out of the user- and shard-id ranges
  std::size_t num_objects = 0;
  /// Canonical block size; distributed and in-process runs compare bitwise
  /// only at equal block sizes.
  std::size_t block_size = data::kDefaultStatsBlockSize;
  /// Timeout-and-resend policy for every shard RPC (shared definition in
  /// net/transport.h).
  net::RpcPolicy rpc;
  /// Seed each round from the previous successful round (stable-id remap).
  bool warm_start = false;
};

/// Which method the coordinator drives, with its full configuration. The
/// coordinator runs make_method(spec)'s loop (TruthDiscovery::run_folds);
/// a categorical kind's alphabet also rides to every shard in its Setup.
struct MethodSpec {
  enum class Kind { kCrh, kGtm, kCatd, kMean, kMedian, kMajority, kVote };
  Kind kind = Kind::kCrh;
  truth::CrhConfig crh;
  truth::GtmConfig gtm;
  truth::CatdConfig catd;
  /// Categorical kinds: the vote's constructor, and so the Coordinator's,
  /// refuses an alphabet outside [2, truth::kMaxBridgedLabels].
  truth::MajorityVoteConfig majority;
  truth::WeightedVoteConfig vote;

  bool supports_warm_start() const {
    return kind == Kind::kCrh || kind == Kind::kGtm || kind == Kind::kCatd ||
           kind == Kind::kVote;
  }

  /// True for the label-claim kinds (the round ingests kLabelReport uploads).
  bool categorical() const {
    return kind == Kind::kMajority || kind == Kind::kVote;
  }

  /// Label alphabet of a categorical kind; 0 for continuous kinds.
  std::size_t num_labels() const {
    switch (kind) {
      case Kind::kMajority:
        return majority.num_labels;
      case Kind::kVote:
        return vote.num_labels;
      default:
        return 0;
    }
  }
};

/// The in-process twin of a MethodSpec (equivalence tests and fallbacks).
std::unique_ptr<truth::TruthDiscovery> make_method(const MethodSpec& spec);

struct DistributedOutcome;

/// Projects a DistributedOutcome onto the campaign RoundRecord schema — the
/// uniform per-round surface the eval/reporting layer consumes whether the
/// round ran in-process or over the distributed protocol. Degradation
/// telemetry (degraded/excluded_shards/reports_lost) carries through; the
/// MAE fields are left NaN for the caller to fill against its ground truth.
crowd::RoundRecord to_round_record(const DistributedOutcome& outcome);

/// Per-shard robustness counters of one round, surfaced uniformly in
/// DistributedOutcome (the same schema whether the shard is an in-process
/// simulator node or a remote socket process).
struct NodeCounters {
  net::NodeId node = 0;
  /// Shard-reported (kGetTelemetry), lifetime counters as of round close:
  /// requests dropped by the exactly-once watermark, and undecodable
  /// envelopes/bodies seen by the shard. Zero when the round failed before
  /// telemetry collection.
  std::uint64_t stale_requests = 0;
  std::uint64_t malformed_messages = 0;
  /// Coordinator-side, this round only: unusable responses from this shard
  /// (malformed_by_node), and sends toward it the transport could not
  /// deliver.
  std::size_t malformed_responses = 0;
  std::size_t messages_undeliverable = 0;
};

struct DistributedOutcome {
  std::uint64_t round = 0;
  /// The protocol ran to the end (false = every shard failed mid-round; the
  /// round must be retried after the automatic re-plan). A single shard
  /// failure no longer clears this: the round closes degraded instead.
  bool completed = false;
  /// Coverage held and `result` is valid (false with completed=true means
  /// uncovered objects made the round skip aggregation, like the in-process
  /// servers do).
  bool aggregated = false;
  /// Set only on a full abort (completed=false): the last shard whose
  /// failure left no survivors to close over.
  std::optional<net::NodeId> failed_shard;
  /// The round closed over a strict subset of its shards. `result` then
  /// covers the surviving users only (bitwise equal to an in-process run
  /// over the survivors' concatenated sub-matrices) and the warm state is
  /// left untouched.
  bool degraded = false;
  /// Shards excluded mid-round (exhausted max_resends or went byzantine),
  /// in exclusion order.
  std::vector<net::NodeId> excluded_shards;
  /// Reports routed to excluded shards that are in no other bucket: exactly
  /// routed-to-shard minus already-counted-undeliverable, per exclusion.
  /// These reports reached (or were bound for) a shard whose ingest summary
  /// can no longer be collected — real, precisely-accounted loss.
  std::size_t reports_lost = 0;
  bool warm_started = false;
  std::size_t reports_routed = 0;      ///< forwarded to owning shards
  std::size_t reports_unroutable = 0;  ///< unknown user / undecodable / late
  /// Routed reports the transport could not deliver (counted synchronously
  /// when their batch is sent, every report of an undeliverable batch; the
  /// simulator's detached-in-flight drops appear per shard in
  /// NodeCounters::messages_undeliverable instead). Reports have no resend
  /// path, so a nonzero value here is real data loss — the no-churn
  /// equivalence suites assert zero.
  std::size_t reports_undeliverable = 0;
  /// Surviving-shard order (== active-shard order when not degraded).
  std::vector<crowd::ShardIngestStats> shard_stats;
  truth::Result result;
  net::NetworkStats network;  ///< whole-round traffic delta
  /// Protocol traffic of the method's iteration loop alone (divide by
  /// result.iterations for the per-iteration cost the bench reports).
  std::size_t iteration_messages = 0;
  std::size_t iteration_bytes = 0;
  std::size_t resends = 0;  ///< straggler recoveries this round
  /// Duplicate/abandoned responses the coordinator dropped this round.
  std::size_t stale_responses = 0;
  /// Per-shard counters in active-shard order (see NodeCounters).
  std::vector<NodeCounters> node_counters;
};

class Coordinator final : public net::Node {
 public:
  /// Binds to any Transport: the simulator Network for in-process fleets,
  /// a SocketTransport for real multi-process deployments. The protocol
  /// bytes — and, with zero drops and no churn, the results — are identical.
  Coordinator(CoordinatorConfig config, MethodSpec method,
              net::Transport& network);
  ~Coordinator() override;

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Roster management. Shards added mid-round participate from the next
  /// round. remove_shard returns false for an unknown id.
  void add_shard(net::NodeId id);
  bool remove_shard(net::NodeId id);
  const std::vector<net::NodeId>& roster() const { return roster_; }

  /// Opens round `round` over `participants` (stable user ids): plans the
  /// shard split, pushes each shard its Setup with its roster slice
  /// (blocking, with resends), and starts routing kReport/kLabelReport
  /// uploads. The roster is read, not kept: a contiguous one is held as its
  /// two ends and its slices travel as ranges. Shards that fail setup are
  /// removed and the round is re-planned over the survivors; returns false
  /// only when no shard survives.
  bool begin_round(std::uint64_t round,
                   const std::vector<net::NodeId>& participants);
  bool round_open() const { return round_open_; }

  /// Closes ingestion (sends every staged batch, then drains in-flight
  /// routed reports for one transport drain window, so finalize cannot
  /// overtake an on-time report), runs the configured method over the fleet,
  /// collects the result, and updates the warm state on success when
  /// `warm_start` is on (a cold fleet records no seed). Blocking:
  /// polls the transport until the protocol finishes or a shard fails. An
  /// exception other than a shard failure (from the transport, say) still
  /// ends the round before it propagates, so begin_round can open the next.
  DistributedOutcome close_round();

  void on_message(const net::Message& message) override;

  const crowd::WarmState& warm() const { return warm_; }
  /// Per source node: kShardResponse payloads that failed to decode (the
  /// byzantine counter the truncation fuzz test exercises) and replies a
  /// close could not use.
  const std::unordered_map<net::NodeId, std::size_t>& malformed_by_node()
      const {
    return malformed_by_node_;
  }
  std::size_t stale_responses() const { return stale_responses_; }
  std::size_t total_resends() const { return total_resends_; }

 private:
  friend class RemoteBackend;

  struct Pending {
    net::NodeId shard = 0;
    std::vector<std::uint8_t> payload;  ///< encoded envelope, for resends
    double deadline = 0.0;
    std::size_t resends = 0;
  };

  // RPC core: send targets[j] the request `request_of(j)` and pump the
  // transport (with timeout-and-resend) until every response arrives.
  // Throws ShardFailure (coordinator.cpp) naming a target that exhausts its
  // resends.
  std::vector<std::vector<std::uint8_t>> call_all(
      const std::vector<net::NodeId>& targets,
      const std::function<BatchItem(std::size_t)>& request_of);
  void pump();

  /// close_round once the round is known to be open; what it throws leaves
  /// the round half closed.
  DistributedOutcome close_planned_round();

  /// Users owned by the live shards (== plan_.num_users when none excluded).
  std::size_t live_num_users() const;

  /// Stages an upload for its owning shard (unroutable ones are counted);
  /// see "Report routing" above for when the batch leaves.
  void route_report(const net::Message& message);
  /// Sends plan index `shard`'s staged uploads as one kReportBatch.
  void flush_batch(std::size_t shard);
  void flush_batches();
  void handle_response(const net::Message& message);

  CoordinatorConfig config_;
  MethodSpec spec_;
  /// make_method(spec_): its run_folds is the loop a close runs.
  std::unique_ptr<truth::TruthDiscovery> method_;
  net::Transport* network_;

  std::vector<net::NodeId> roster_;

  // Open-round state.
  bool round_open_ = false;
  bool round_planned_ = false;  ///< begin_round succeeded, close pending
  std::uint64_t round_ = 0;
  /// The round's roster: a contiguous one keeps no id list, and each
  /// shard's Setup carries its slice as a range.
  crowd::ParticipantIndex index_;
  data::ShardPlan plan_;
  std::vector<net::NodeId> active_;  ///< shard_index -> node id this round
  /// Plan indices of the shards still in the round, ascending. Starts as
  /// [0, num_shards); a degraded close removes failed shards from it and
  /// every collective iterates it (plan index keeps the slice/fold order).
  std::vector<std::size_t> live_;
  /// Per-plan-index report routing counters, the exact-loss ledger of a
  /// degraded close: lost(i) = routed_by_shard_[i] - undeliverable_by_shard_[i].
  /// The round's reports_routed and reports_undeliverable are their sums.
  std::vector<std::size_t> routed_by_shard_;
  std::vector<std::size_t> undeliverable_by_shard_;
  /// Per plan index: uploads routed this transport turn, not yet sent.
  struct Staged {
    crowd::MessageType type = crowd::MessageType::kReport;
    crowd::ReportBatchBuilder batch;
  };
  std::vector<Staged> staged_;
  bool flush_scheduled_ = false;
  /// Expires with the coordinator, so a flush the transport still holds
  /// after destruction does nothing.
  std::shared_ptr<const bool> alive_ = std::make_shared<const bool>(true);
  std::size_t reports_unroutable_ = 0;
  net::NetworkStats stats_at_begin_;
  /// Per-round deltas for NodeCounters: snapshots taken at begin_round.
  std::unordered_map<net::NodeId, std::size_t> undeliverable_at_begin_;
  std::unordered_map<net::NodeId, std::size_t> malformed_at_begin_;
  std::size_t stale_at_begin_ = 0;
  std::unordered_map<net::NodeId, Telemetry> telemetry_by_node_;

  crowd::WarmState warm_;

  // RPC state.
  std::uint64_t next_op_id_ = 0;
  std::unordered_map<std::uint64_t, Pending> outstanding_;
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> arrived_;
  std::size_t round_resends_ = 0;
  std::size_t total_resends_ = 0;
  std::size_t stale_responses_ = 0;
  std::unordered_map<net::NodeId, std::size_t> malformed_by_node_;
};

}  // namespace dptd::dist
