#include "spans.hpp"

#include <chrono>
#include <deque>
#include <sstream>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

const char* intern(const std::string& s) {
  static std::mutex mu;
  static std::deque<std::string> pool;  // deque: elements never move.
  std::lock_guard<std::mutex> lock(mu);
  for (const std::string& p : pool)
    if (p == s) return p.c_str();
  pool.push_back(s);
  return pool.back().c_str();
}

namespace {
// One recorder per process (one workload run per process), so a plain
// thread-local pointer to this thread's buffer suffices.
thread_local ThreadSpans* t_local = nullptr;
}  // namespace

SpanRecorder::SpanRecorder() : origin_ns_(now_ns()) { local(); }

ThreadSpans& SpanRecorder::local() {
  if (t_local == nullptr) {
    auto t = std::make_unique<ThreadSpans>();
    t->spans.reserve(1 << 16);
    std::lock_guard<std::mutex> lock(mu_);
    t->tid = int(threads_.size());
    t_local = t.get();
    threads_.push_back(std::move(t));
  }
  return *t_local;
}

void SpanRecorder::open(const char* name, std::int64_t arg) {
  open_at(name, now_ns(), arg);
}

void SpanRecorder::open_at(const char* name, std::int64_t start_ns,
                           std::int64_t arg) {
  ThreadSpans& t = local();
  Span s;
  s.name = name;
  s.start_ns = start_ns;
  s.parent = t.open.empty() ? -1 : t.open.back();
  s.arg = arg;
  t.open.push_back(std::int32_t(t.spans.size()));
  t.spans.push_back(s);
}

void SpanRecorder::close(const char* name) {
  const std::int64_t end = now_ns();
  ThreadSpans& t = local();
  if (t.open.empty() || t.spans[std::size_t(t.open.back())].name != name)
    throw std::logic_error(std::string("span close out of order: ") + name);
  t.spans[std::size_t(t.open.back())].end_ns = end;
  t.open.pop_back();
}

void SpanRecorder::close(const char* name, std::int64_t arg) {
  ThreadSpans& t = local();
  if (!t.open.empty()) t.spans[std::size_t(t.open.back())].arg = arg;
  close(name);
}

bool SpanRecorder::is_open(const char* name) {
  ThreadSpans& t = local();
  return !t.open.empty() && t.spans[std::size_t(t.open.back())].name == name;
}

std::string to_chrome_trace(const SpanRecorder& rec) {
  std::ostringstream os;
  os << "{\"otherData\":{\"time_unit\":\"ns\"},\"traceEvents\":[";
  bool first = true;
  for (const auto& t : rec.threads()) {
    for (std::size_t i = 0; i < t->spans.size(); ++i) {
      const Span& s = t->spans[i];
      if (s.end_ns < 0 || s.dur() <= 0) continue;
      os << (first ? "" : ",") << "\n{\"name\":\"" << s.name
         << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << t->tid
         << ",\"ts\":" << (s.start_ns - rec.origin_ns()) << ",\"dur\":" << s.dur()
         << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent
         << ",\"arg\":" << s.arg << "}}";
      first = false;
    }
  }
  os << "\n]}\n";
  return os.str();
}

std::vector<std::int64_t> self_times(const ThreadSpans& t) {
  std::vector<std::int64_t> self(t.spans.size());
  for (std::size_t i = 0; i < t.spans.size(); ++i) self[i] = t.spans[i].dur();
  for (const Span& s : t.spans)
    if (s.parent >= 0) self[std::size_t(s.parent)] -= s.dur();
  return self;
}

}  // namespace perfbench
