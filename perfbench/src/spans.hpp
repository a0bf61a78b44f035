#pragma once
/// \file spans.hpp
/// In-memory span recorder for the traced benchmark pass.
///
/// Every thread appends to its own buffer (registered on first use), so
/// worker threads never contend; buffers are read only after the simulation
/// has joined its pool. A span has a name, a start, an end and a parent —
/// the innermost span open on the same thread when it was opened. Spans on
/// one thread therefore nest strictly, which is what
/// obs::validate_chrome_trace checks in the written file.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic clock in nanoseconds.
std::int64_t now_ns();

struct Span {
  const char* name = nullptr;  ///< Interned (see intern()), never freed.
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;    ///< -1 while open.
  std::int32_t parent = -1;    ///< Index on the same thread; -1 for a root.
  std::int64_t arg = 0;        ///< Span-specific count (local steps, round).
  std::int64_t dur() const { return end_ns - start_ns; }
};

struct ThreadSpans {
  int tid = 0;  ///< 0 is the thread that created the recorder (the engine thread).
  std::vector<Span> spans;
  std::vector<std::int32_t> open;  ///< Stack of open span indices.
};

/// Returns a stable C string equal to `s` (stored for the process lifetime).
const char* intern(const std::string& s);

class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  /// Opens a span on the calling thread starting now (or at `start_ns`).
  void open(const char* name, std::int64_t arg = 0);
  void open_at(const char* name, std::int64_t start_ns, std::int64_t arg = 0);
  /// Closes the innermost open span on the calling thread, which must be
  /// named `name` (a mismatch is a benchmark bug and throws).
  void close(const char* name);
  /// Same, also setting the span's count argument.
  void close(const char* name, std::int64_t arg);
  /// True when the innermost open span on this thread is named `name`.
  bool is_open(const char* name);

  /// All threads' spans; call only after every recording thread is joined.
  const std::vector<std::unique_ptr<ThreadSpans>>& threads() const {
    return threads_;
  }
  std::int64_t origin_ns() const { return origin_ns_; }

 private:
  ThreadSpans& local();

  std::int64_t origin_ns_;
  std::mutex mu_;  // Guards threads_ (registration only).
  std::vector<std::unique_ptr<ThreadSpans>> threads_;
};

/// RAII span on the calling thread; no-op when `rec` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::int64_t arg = 0)
      : rec_(rec), name_(name) {
    if (rec_) rec_->open(name_, arg);
  }
  ~ScopedSpan() {
    if (rec_) rec_->close(name_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* rec_;
  const char* name_;
};

/// Writes every closed span with a positive duration as a Chrome
/// trace-event document ("ph":"X"; ts and dur are integer nanoseconds since
/// the recorder's origin, so nesting survives the round trip through JSON
/// numbers exactly). The parent is kept in each event's args.
std::string to_chrome_trace(const SpanRecorder& rec);

/// Self time of span `i` on `t`: its duration minus its children's.
std::vector<std::int64_t> self_times(const ThreadSpans& t);

}  // namespace perfbench
