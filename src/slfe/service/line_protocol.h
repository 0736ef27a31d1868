#ifndef SLFE_SERVICE_LINE_PROTOCOL_H_
#define SLFE_SERVICE_LINE_PROTOCOL_H_

#include <string>
#include <vector>

#include "slfe/common/status.h"
#include "slfe/service/job_service.h"

namespace slfe::service {

/// One parsed line of the job protocol. Parsing is pure — no I/O, no
/// service access — so the stdin driver, the TCP connection sessions, and
/// the unit tests all share exactly one grammar: a parser bug fixed here
/// is fixed for every transport at once.
struct ParsedCommand {
  enum class Kind {
    kEmpty,     ///< blank line or `# comment`
    kQuit,      ///< close this input stream (drain first)
    kWait,      ///< barrier: results of prior submissions before new lines
    kStats,     ///< print service + tenant + connection counters
    kSweep,     ///< run a maintenance sweep now
    kSubmit,    ///< payload in `submit`
    kMutate,    ///< payload in `mutate`
    kAuth,      ///< connection handshake: payload in auth_tenant/auth_token
    kShutdown,  ///< stop the whole daemon (gated by an option at dispatch)
    kMetrics,   ///< metrics exposition; `metrics_json` selects the format
    kTrace,     ///< flight-recorder dump; selector in `trace_arg`
    kHot,       ///< top-k heavy-hitter graphs; k in `hot_k`
    kError,     ///< malformed; `error` holds the full reject line
  };
  Kind kind = Kind::kEmpty;
  JobRequest submit;
  MutationRequest mutate;
  std::string auth_tenant;
  std::string auth_token;
  /// For kMetrics: true = the JSON renderer (`metrics json`), false = the
  /// Prometheus text exposition (bare `metrics`).
  bool metrics_json = false;
  /// For kTrace: "" (= recent), "recent", "slow", or a job id (plain
  /// digits; anything else is rejected at parse time).
  std::string trace_arg;
  /// For kHot: requested list length; bare `hot` leaves the default.
  size_t hot_k = 10;
  /// For kError: a complete, '\n'-terminated "reject: ..." line. Always
  /// terminated even when the offending input line was not — an
  /// unterminated reject would glue onto the next output line.
  std::string error;
};

/// Splits on ASCII whitespace; never throws.
std::vector<std::string> TokenizeLine(const std::string& line);

/// Strict vertex-id parse: pure digits only (no sign, no '.', no
/// exponent — `del 1.5 2` must reject, not truncate to src=1), and the
/// value must fit VertexId (an out-of-range token would otherwise wrap
/// through the narrowing cast into a bogus but in-range id).
Result<VertexId> ParseVertexId(const std::string& token);

/// Parses one protocol line into a command. Grammar (see line_driver.h):
///   submit <tenant> <app> <graph> [root] [engine] [norr]
///   mutate <tenant> <graph> [ins <src> <dst> <w>]... [del <src> <dst>]...
///   auth <tenant> [token]
///   metrics [json]
///   trace [recent|slow|<job-id>]
///   hot [k]
///   wait | sweep | stats | quit | shutdown | # comment
ParsedCommand ParseCommandLine(const std::string& line);

/// One '\n'-terminated result line. The served= tag precedence is part of
/// the protocol: cache > coalesced > repaired > generate ("none" when no
/// guidance was acquired).
std::string FormatResult(const JobResult& result);

/// FormatResult with a per-connection request tag appended (` req=K`), so
/// a pipelining client can correlate streamed completions — which arrive
/// in completion order, not submission order — back to its own submits.
std::string FormatResult(const JobResult& result, uint64_t req);

/// The multi-line stats block: service, net front end, guidance, and one
/// line per tenant.
std::string FormatStats(const JobServiceStats& stats);

std::string FormatSweep(const GuidanceStoreSweepStats& sweep);

}  // namespace slfe::service

#endif  // SLFE_SERVICE_LINE_PROTOCOL_H_
