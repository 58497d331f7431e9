#include "layers.hpp"

#include <functional>
#include <unordered_map>
#include <vector>

namespace perfbench {
namespace {

bool starts_with(const std::string& s, const char* prefix) { return s.rfind(prefix, 0) == 0; }

bool ends_with(const std::string& s, const char* suffix) {
  const std::string suf(suffix);
  return s.size() >= suf.size() && s.compare(s.size() - suf.size(), suf.size(), suf) == 0;
}

bool is_phase(const std::string& name) {
  for (const char* p : {"2ecss.", "3ecss", "kecss.", "augment.", "mst.", "decomp.", "tap.",
                        "ftmst."})
    if (starts_with(name, p)) return true;
  return false;
}

}  // namespace

const char* phase_layer(const std::string& phase) {
  if (ends_with(phase, ".bfs")) return "congest";
  if (starts_with(phase, "mst.")) return "mst";
  if (starts_with(phase, "decomp.")) return "decomp";
  if (starts_with(phase, "tap.") || starts_with(phase, "ftmst.")) return "tap";
  if (starts_with(phase, "3ecss.aug") || starts_with(phase, "3ecss_w.aug")) return "cycles";
  return "ecss";
}

std::string sanitize_phase(const std::string& phase) {
  std::string out;
  for (const char c : phase) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
                    c == '.' || c == '_' || c == '-';
    if (ok) {
      out += c;
    } else if (!out.empty() && out.back() != '_') {
      out += '_';
    }
  }
  while (!out.empty() && out.back() == '_') out.pop_back();
  return out;
}

TraceSummary summarize(std::span<const deck::obs::TraceEvent> events) {
  TraceSummary s;
  s.events = events.size();
  for (const char* layer : kLayers) s.layer_self_s[layer] = 0;

  std::unordered_map<std::uint64_t, std::size_t> by_id;
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> children;
  std::vector<std::size_t> roots;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const deck::obs::TraceEvent& ev = events[i];
    if (ev.pid != 0) {
      if (ev.name == "worker.round") s.worker_step_s += static_cast<double>(ev.dur_ns) * 1e-9;
      continue;
    }
    by_id[ev.span_id] = i;
    if (starts_with(ev.name, "bench.")) roots.push_back(i);
  }
  for (std::size_t i = 0; i < events.size(); ++i) {
    const deck::obs::TraceEvent& ev = events[i];
    if (ev.pid == 0 && !starts_with(ev.name, "bench.") && by_id.count(ev.parent_id) != 0)
      children[ev.parent_id].push_back(i);
  }

  const std::function<void(std::size_t, const std::string&)> visit =
      [&](std::size_t i, const std::string& parent_layer) {
        const deck::obs::TraceEvent& ev = events[i];
        std::string layer = parent_layer;
        if (ev.name == "bench.apply" || ev.name == "bench.flush" || ev.name == "bench.query" ||
            ev.name == "serve.query") {
          layer = "serve";
        } else if (starts_with(ev.name, "recovery.")) {
          layer = "sketch";
        } else if (ev.name == "bench.solve") {
          layer = "ecss";
        } else if (ev.name == "net.execute") {
          layer = "net";
        } else if (parent_layer != "net" && is_phase(ev.name)) {
          layer = phase_layer(ev.name);
        }
        double child_s = 0;
        const auto it = children.find(ev.span_id);
        if (it != children.end())
          for (const std::size_t c : it->second) {
            child_s += static_cast<double>(events[c].dur_ns) * 1e-9;
            visit(c, layer);
          }
        const double dur_s = static_cast<double>(ev.dur_ns) * 1e-9;
        const double self_s = dur_s > child_s ? dur_s - child_s : 0.0;
        s.layer_self_s[layer] += self_s;
        if (ev.name == "serve.query") s.serve_query_self_s += self_s;
        if (ev.name == "recovery.attempt") {
          s.recovery_s += dur_s;
          s.attempt_self_s += self_s;
        }
        if (ev.name == "recovery.round") s.recovery_round_s += dur_s;
      };
  for (const std::size_t r : roots) {
    s.roots_s += static_cast<double>(events[r].dur_ns) * 1e-9;
    visit(r, "other");
  }
  return s;
}

}  // namespace perfbench
