#pragma once
/// \file loadgen.hpp
/// Single-threaded open-loop load generator over a few Unix-socket
/// connections to voprofd. Requests leave at their scheduled times
/// whether or not earlier ones were answered (independent users), and
/// each is timed from its *scheduled* send time, so a stall also charges
/// the wait it imposes on every request queued behind it. The generator
/// records how late it sent each request, so a run in which the
/// generator rather than the daemon fell behind can be told apart.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "voprof/serve/socket.hpp"

namespace perfbench {

/// One request of a phase.
struct Planned {
  std::int64_t due_ns = 0;  ///< send time, offset from the phase start
  int kind = 0;             ///< request class (caller-defined)
  std::size_t input = 0;    ///< index into the caller's inputs
};

/// What happened to one request.
struct Outcome {
  std::int64_t lag_ns = 0;       ///< send attempt minus scheduled time
  std::int64_t latency_ns = -1;  ///< answer minus scheduled time; -1: none
  bool ok = false;               ///< the envelope said "ok": true
  bool correct = false;          ///< ok, and the caller's check accepted it
};

struct PhaseResult {
  std::int64_t start_ns = 0;  ///< absolute time of offset 0
  std::uint64_t id_base = 0;  ///< request i carried id id_base + i
  std::vector<Outcome> outcomes;
  /// Requests still unanswered when the last one was sent.
  std::size_t backlog_at_last_send = 0;
};

class OpenLoopGenerator {
 public:
  /// The line of request i, carrying the given id.
  using LineFn = std::function<std::string(std::size_t, std::string_view)>;
  /// Whether the answer (third argument) to request i with the given id
  /// is correct.
  using CheckFn =
      std::function<bool(std::size_t, std::string_view, std::string_view)>;

  /// Connect `connections` sockets; throws std::runtime_error on failure.
  OpenLoopGenerator(const std::string& socket, int connections);

  /// Send plan[i] at its due time on connection i % connections, and
  /// return once every request is answered or `drain_ns` after the last
  /// send. `plan` must be sorted by due time.
  [[nodiscard]] PhaseResult run(const std::vector<Planned>& plan,
                                const LineFn& line, const CheckFn& check,
                                std::int64_t drain_ns);

 private:
  struct Conn {
    voprof::serve::Fd fd;
    std::string out;  ///< bytes not yet written
    std::string in;   ///< bytes received past the last full line
  };
  static void flush(Conn& conn);
  static void receive(Conn& conn);

  std::vector<Conn> conns_;
  std::uint64_t next_id_ = 1;  ///< ids stay unique across phases
};

}  // namespace perfbench
