#include "obs/profile.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/error.h"
#include "common/json_reader.h"
#include "common/json_writer.h"
#include "obs/run_meta.h"

namespace geomap::obs {

namespace {

bool deterministic_from_env() {
  const char* v = std::getenv("GEOMAP_PROFILE_DETERMINISTIC");
  return v != nullptr && v[0] != '\0' && v[0] != '0';
}

}  // namespace

// ---------------------------------------------------------------------------
// Tree node

struct Phase::Node {
  std::string name;
  Node* parent = nullptr;
  double wall = 0;
  double cpu = 0;
  std::uint64_t calls = 0;
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, std::unique_ptr<Node>> children;
};

double PhaseSnapshot::exclusive_seconds() const {
  double children_wall = 0;
  for (const PhaseSnapshot& c : children) children_wall += c.wall_seconds;
  return wall_seconds - children_wall;
}

bool PhaseSnapshot::has_time() const {
  if (wall_seconds > 0) return true;
  for (const PhaseSnapshot& c : children)
    if (c.has_time()) return true;
  return false;
}

// ---------------------------------------------------------------------------
// Phase (RAII handle)

Phase& Phase::operator=(Phase&& other) noexcept {
  if (this != &other) {
    end();
    profiler_ = other.profiler_;
    node_ = other.node_;
    wall_start_ = other.wall_start_;
    cpu_start_ = other.cpu_start_;
    thread_ = other.thread_;
    other.profiler_ = nullptr;
    other.node_ = nullptr;
  }
  return *this;
}

void Phase::count(const std::string& name, std::uint64_t n) {
  if (profiler_ == nullptr) return;
  std::lock_guard<std::mutex> lock(profiler_->mutex_);
  node_->counters[name] += n;
}

void Phase::end() {
  if (profiler_ == nullptr) return;
  PhaseProfiler* profiler = profiler_;
  profiler_ = nullptr;
  const double wall = profiler->now_seconds() - wall_start_;
  const double cpu = profiler->thread_cpu_seconds() - cpu_start_;
  profiler->close(node_, wall, cpu, thread_);
  node_ = nullptr;
}

// ---------------------------------------------------------------------------
// PhaseProfiler

PhaseProfiler::PhaseProfiler()
    : epoch_(std::chrono::steady_clock::now()),
      root_(std::make_unique<Node>()),
      deterministic_(deterministic_from_env()) {
  root_->name = "run";
}

PhaseProfiler::~PhaseProfiler() = default;

Phase PhaseProfiler::phase(std::string name) {
  Phase p;
  p.profiler_ = this;
  p.thread_ = std::this_thread::get_id();
  p.node_ = open(name);
  // Clocks read after the bookkeeping so the profiler's own lock does
  // not count against the phase.
  p.wall_start_ = now_seconds();
  p.cpu_start_ = thread_cpu_seconds();
  return p;
}

void PhaseProfiler::count(const std::string& name, std::uint64_t n) {
  std::lock_guard<std::mutex> lock(mutex_);
  touched_ = true;
  std::vector<Node*>& stack = stacks_[std::this_thread::get_id()];
  Node* node = stack.empty() ? root_.get() : stack.back();
  node->counters[name] += n;
}

PhaseProfiler::Node* PhaseProfiler::open(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  touched_ = true;
  std::vector<Node*>& stack = stacks_[std::this_thread::get_id()];
  Node* parent = stack.empty() ? root_.get() : stack.back();
  std::unique_ptr<Node>& slot = parent->children[name];
  if (slot == nullptr) {
    slot = std::make_unique<Node>();
    slot->name = name;
    slot->parent = parent;
  }
  stack.push_back(slot.get());
  return slot.get();
}

void PhaseProfiler::close(Node* node, double wall_delta, double cpu_delta,
                          std::thread::id tid) {
  std::lock_guard<std::mutex> lock(mutex_);
  node->wall += wall_delta;
  node->cpu += cpu_delta;
  node->calls += 1;
  // Phases normally close LIFO; a moved handle destroyed late is
  // tolerated by erasing the deepest matching frame.
  std::vector<Node*>& stack = stacks_[tid];
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (*it == node) {
      stack.erase(std::next(it).base());
      break;
    }
  }
}

void PhaseProfiler::set_deterministic(bool deterministic) {
  std::lock_guard<std::mutex> lock(mutex_);
  deterministic_ = deterministic;
}

bool PhaseProfiler::deterministic() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return deterministic_;
}

bool PhaseProfiler::empty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return !touched_;
}

double PhaseProfiler::now_seconds() const {
  if (deterministic()) return 0;
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       epoch_)
      .count();
}

double PhaseProfiler::thread_cpu_seconds() const {
  if (deterministic()) return 0;
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts;
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0)
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
#endif
  return static_cast<double>(std::clock()) / CLOCKS_PER_SEC;
}

PhaseSnapshot PhaseProfiler::snapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  // Recursive lambda rather than a file-local helper: Node is private to
  // Phase and only friends see it.
  const auto snapshot_node = [](const auto& self,
                                const Node& node) -> PhaseSnapshot {
    PhaseSnapshot s;
    s.name = node.name;
    s.wall_seconds = node.wall;
    s.cpu_seconds = node.cpu;
    s.calls = node.calls;
    s.counters = node.counters;
    for (const auto& [name, child] : node.children)
      s.children.push_back(self(self, *child));
    return s;
  };
  PhaseSnapshot root = snapshot_node(snapshot_node, *root_);
  // The synthetic root is never opened; its inclusive times are the
  // top-level sums so exclusive times telescope to zero at the root.
  root.wall_seconds = 0;
  root.cpu_seconds = 0;
  for (const PhaseSnapshot& c : root.children) {
    root.wall_seconds += c.wall_seconds;
    root.cpu_seconds += c.cpu_seconds;
  }
  return root;
}

namespace {

void write_node_json(JsonWriter& w, const PhaseSnapshot& node) {
  w.begin_object();
  w.field("wall_seconds", node.wall_seconds);
  w.field("cpu_seconds", node.cpu_seconds);
  w.field("exclusive_seconds", node.exclusive_seconds());
  w.field("calls", node.calls);
  w.key("counters").begin_object();
  for (const auto& [name, value] : node.counters) w.field(name, value);
  w.end_object();
  w.key("children").begin_object();
  for (const PhaseSnapshot& child : node.children) {
    w.key(child.name);
    write_node_json(w, child);
  }
  w.end_object();
  w.end_object();
}

void write_collapsed_node(std::ostream& os, const PhaseSnapshot& node,
                          const std::string& prefix, bool use_calls) {
  const std::string path =
      prefix.empty() ? node.name : prefix + ";" + node.name;
  const auto weight =
      use_calls ? static_cast<long long>(node.calls)
                : std::llround(std::max(0.0, node.exclusive_seconds()) * 1e6);
  if (weight > 0) os << path << " " << weight << "\n";
  for (const PhaseSnapshot& child : node.children)
    write_collapsed_node(os, child, path, use_calls);
}

PhaseSnapshot node_from_json(const std::string& name, const JsonValue& v) {
  PhaseSnapshot n;
  n.name = name;
  n.wall_seconds = v.number_or("wall_seconds", 0);
  n.cpu_seconds = v.number_or("cpu_seconds", 0);
  // Calls and counters are written as exact integers; as_uint64 reads
  // them back exactly and rejects anything else.
  if (const JsonValue* calls = v.find("calls")) n.calls = calls->as_uint64();
  if (const JsonValue* counters = v.find("counters")) {
    for (const auto& [key, c] : counters->members())
      if (c.is_number()) n.counters[key] = c.as_uint64();
  }
  if (const JsonValue* children = v.find("children")) {
    for (const auto& [key, c] : children->members())
      n.children.push_back(node_from_json(key, c));
  }
  return n;
}

}  // namespace

void PhaseProfiler::write_json(std::ostream& os, const MemTracker* memory,
                               const RunMeta* meta) const {
  const PhaseSnapshot root = snapshot();
  JsonWriter w(os);
  w.begin_object();
  if (meta != nullptr) meta->write_member(w);
  w.field("deterministic", deterministic());
  w.key("tree");
  write_node_json(w, root);
  if (memory != nullptr) memory->write_json_member(w);
  w.end_object();
  os << "\n";
}

void write_collapsed(std::ostream& os, const PhaseSnapshot& root) {
  write_collapsed_node(os, root, "", /*use_calls=*/!root.has_time());
}

PhaseSnapshot profile_from_json(const JsonValue& root) {
  const JsonValue* tree = root.find("tree");
  GEOMAP_CHECK_ARG(tree != nullptr && tree->is_object(),
                   "not a profile artifact (no top-level 'tree' object)");
  return node_from_json("run", *tree);
}

// ---------------------------------------------------------------------------
// MemTracker

MemTracker::MemTracker() : deterministic_(deterministic_from_env()) {}

void MemTracker::charge(const std::string& account, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  Account& a = accounts_[account];
  a.current += bytes;
  a.peak = std::max(a.peak, a.current);
}

void MemTracker::release(const std::string& account, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  Account& a = accounts_[account];
  a.current = bytes > a.current ? 0 : a.current - bytes;
}

void MemTracker::note(const std::string& account, std::uint64_t bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  Account& a = accounts_[account];
  a.current = bytes;
  a.peak = std::max(a.peak, bytes);
}

std::uint64_t MemTracker::current_bytes(const std::string& account) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = accounts_.find(account);
  return it == accounts_.end() ? 0 : it->second.current;
}

std::uint64_t MemTracker::peak_bytes(const std::string& account) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = accounts_.find(account);
  return it == accounts_.end() ? 0 : it->second.peak;
}

void MemTracker::sample_rss() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (deterministic_) return;
  rss_peak_ = std::max(rss_peak_, process_peak_rss_bytes());
}

std::uint64_t MemTracker::rss_peak_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rss_peak_;
}

namespace {

/// "VmRSS:   12345 kB" -> bytes; 0 when the key is absent or the file
/// unreadable (non-Linux hosts).
std::uint64_t status_kb(const char* key) {
  std::ifstream status("/proc/self/status");
  if (!status.good()) return 0;
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) != 0) continue;
    std::istringstream fields(line.substr(std::string(key).size()));
    std::uint64_t kb = 0;
    fields >> kb;
    return kb * 1024;
  }
  return 0;
}

}  // namespace

std::uint64_t MemTracker::process_rss_bytes() { return status_kb("VmRSS:"); }

std::uint64_t MemTracker::process_peak_rss_bytes() {
  return status_kb("VmHWM:");
}

void MemTracker::set_deterministic(bool deterministic) {
  std::lock_guard<std::mutex> lock(mutex_);
  deterministic_ = deterministic;
}

bool MemTracker::deterministic() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return deterministic_;
}

void MemTracker::write_json_member(JsonWriter& w) const {
  std::lock_guard<std::mutex> lock(mutex_);
  w.key("memory").begin_object();
  w.key("accounts").begin_object();
  for (const auto& [name, account] : accounts_) {
    w.key(name).begin_object();
    w.field("current_bytes", account.current);
    w.field("peak_bytes", account.peak);
    w.end_object();
  }
  w.end_object();
  if (rss_peak_ > 0) w.field("rss_peak_bytes", rss_peak_);
  w.end_object();
}

}  // namespace geomap::obs
