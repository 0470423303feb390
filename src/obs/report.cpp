#include "obs/report.hpp"

#include "obs/json.hpp"

namespace cg::obs {

namespace {

void step_kv(JsonWriter& w, std::string_view key, Step s) {
  if (s == kNever)
    w.kv_null(key);
  else
    w.kv(key, static_cast<std::int64_t>(s));
}

void samples_kv(JsonWriter& w, std::string_view key, const Samples& s) {
  w.key(key);
  w.begin_object();
  w.kv("count", static_cast<std::int64_t>(s.count()));
  if (!s.empty()) {
    w.kv("mean", s.mean());
    w.kv("min", s.min());
    w.kv("max", s.max());
    w.kv("p50", s.p50());
    w.kv("p90", s.p90());
    w.kv("p99", s.p99());
  }
  w.end_object();
}

void summary_kv(JsonWriter& w, std::string_view key, const SummaryStat& s) {
  w.key(key);
  w.begin_object();
  w.kv("count", static_cast<std::int64_t>(s.count()));
  if (!s.empty()) {
    w.kv("mean", s.mean());
    w.kv("stddev", s.stddev());
    w.kv("ci95", s.ci95_halfwidth());
    w.kv("min", s.min());
    w.kv("max", s.max());
    w.kv("p50", s.p50());
    w.kv("p90", s.p90());
    w.kv("p99", s.p99());
  }
  w.end_object();
}

}  // namespace

void write_json(JsonWriter& w, const RunMetrics& m) {
  w.begin_object();
  w.kv("n_total", static_cast<std::int64_t>(m.n_total));
  w.kv("n_active", static_cast<std::int64_t>(m.n_active));
  w.kv("n_colored", static_cast<std::int64_t>(m.n_colored));
  w.kv("n_delivered", static_cast<std::int64_t>(m.n_delivered));
  step_kv(w, "t_last_colored", m.t_last_colored);
  step_kv(w, "t_last_colored_partial", m.t_last_colored_partial);
  step_kv(w, "t_last_delivered", m.t_last_delivered);
  step_kv(w, "t_complete", m.t_complete);
  step_kv(w, "t_root_complete", m.t_root_complete);
  w.kv("t_end", static_cast<std::int64_t>(m.t_end));
  w.kv("msgs_total", m.msgs_total);
  w.kv("msgs_gossip", m.msgs_gossip);
  w.kv("msgs_correction", m.msgs_correction);
  w.kv("msgs_sos", m.msgs_sos);
  w.kv("msgs_tree", m.msgs_tree);
  w.kv("msgs_retrans", m.msgs_retrans);
  w.kv("msgs_dropped", m.msgs_dropped);
  w.kv("all_active_colored", m.all_active_colored);
  w.kv("all_active_delivered", m.all_active_delivered);
  w.kv("all_or_nothing_delivery", m.all_or_nothing_delivery());
  w.kv("sos_triggered", m.sos_triggered);
  w.kv("hit_max_steps", m.hit_max_steps);
  w.kv("bfb_restarts", m.bfb_restarts);
  w.kv("inconsistency", m.inconsistency());
  if (m.n_byzantine > 0) {
    w.kv("n_byzantine", static_cast<std::int64_t>(m.n_byzantine));
    w.kv("n_delivered_true", static_cast<std::int64_t>(m.n_delivered_true));
    w.kv("n_delivered_forged",
         static_cast<std::int64_t>(m.n_delivered_forged));
    w.kv("distinct_delivered_payloads",
         static_cast<std::int64_t>(m.distinct_delivered_payloads));
    w.kv("consistent_delivery", m.consistent_delivery);
    w.kv("msgs_forged", m.msgs_forged);
    w.kv("msgs_equivocated", m.msgs_equivocated);
    w.kv("msgs_suppressed", m.msgs_suppressed);
  }
  w.end_object();
}

void write_json(JsonWriter& w, const TrialAggregate& agg) {
  w.begin_object();
  w.kv("trials", agg.trials);
  samples_kv(w, "t_last_colored", agg.t_last_colored);
  samples_kv(w, "t_last_colored_partial", agg.t_last_colored_partial);
  samples_kv(w, "t_complete", agg.t_complete);
  samples_kv(w, "t_root_complete", agg.t_root_complete);
  summary_kv(w, "work", agg.work);
  summary_kv(w, "work_gossip", agg.work_gossip);
  summary_kv(w, "work_correction", agg.work_correction);
  summary_kv(w, "work_retrans", agg.work_retrans);
  summary_kv(w, "inconsistency", agg.inconsistency);
  w.kv("all_colored_trials", agg.all_colored_trials);
  w.kv("all_delivered_trials", agg.all_delivered_trials);
  w.kv("sos_trials", agg.sos_trials);
  w.kv("all_or_nothing_violations", agg.all_or_nothing_violations);
  w.kv("sos_incomplete_trials", agg.sos_incomplete_trials);
  w.kv("hit_max_steps_trials", agg.hit_max_steps_trials);
  w.kv("bfb_restarts_total", agg.bfb_restarts_total);
  w.kv("msgs_dropped_total", agg.msgs_dropped_total);
  w.kv("consistency_violations", agg.consistency_violations);
  w.kv("forged_delivery_trials", agg.forged_delivery_trials);
  w.kv("msgs_equivocated_total", agg.msgs_equivocated_total);
  w.kv("msgs_forged_total", agg.msgs_forged_total);
  w.kv("msgs_suppressed_total", agg.msgs_suppressed_total);
  w.kv("all_colored_rate", agg.all_colored_rate());
  w.end_object();
}

void write_json(JsonWriter& w, const EngineProfile& prof) {
  w.begin_object();
  w.kv("events", prof.events());
  w.kv("callbacks_start", prof.callbacks_start);
  w.kv("callbacks_receive", prof.callbacks_receive);
  w.kv("callbacks_tick", prof.callbacks_tick);
  w.kv("events_scheduled", prof.events_scheduled);
  w.kv("events_fired", prof.events_fired);
  w.kv("queue_max_bucket", prof.queue_max_bucket);
  w.kv("steps", static_cast<std::int64_t>(prof.steps));
  w.kv("wall_s", prof.wall_s);
  w.kv("deliver_s", prof.deliver_s);
  w.kv("tick_s", prof.tick_s);
  w.kv("route_s", prof.route_s);
  w.kv("events_per_sec", prof.events_per_sec());
  w.kv("bytes_per_node", prof.bytes_per_node);
  w.kv("peak_rss_bytes", prof.peak_rss_bytes);
  if (prof.shards > 0) {
    w.kv("shards", static_cast<std::int64_t>(prof.shards));
    w.kv("windows", prof.windows);
    w.kv("window_stalls", prof.window_stalls);
    w.kv("boundary_msgs", prof.boundary_msgs);
    w.key("shard_stats");
    w.begin_array();
    for (const auto& s : prof.shard_stats) {
      w.begin_object();
      w.kv("events_fired", s.events_fired);
      w.kv("boundary_msgs", s.boundary_msgs);
      w.kv("window_stalls", s.window_stalls);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

std::string to_json(const RunMetrics& m) {
  JsonWriter w;
  write_json(w, m);
  return w.str();
}

std::string to_json(const TrialAggregate& agg) {
  JsonWriter w;
  write_json(w, agg);
  return w.str();
}

std::string to_json(const EngineProfile& prof) {
  JsonWriter w;
  write_json(w, prof);
  return w.str();
}

void write_json(JsonWriter& w, const CampaignResult& result) {
  w.begin_object();
  w.kv("cells", static_cast<std::int64_t>(result.cells.size()));
  w.kv("failed_cells", static_cast<std::int64_t>(result.failed_cells));
  w.kv("all_pass", result.all_pass());
  w.key("results");
  w.begin_array();
  for (const auto& cell : result.cells) {
    w.begin_object();
    w.kv("scenario", cell.scenario);
    w.kv("entry", cell.entry);
    w.kv("guarantee", guarantee_name(cell.guarantee));
    w.kv("pass", cell.pass);
    w.key("aggregate");
    write_json(w, cell.agg);
    w.end_object();
  }
  w.end_array();
  if (!result.artifacts.empty()) {
    w.key("artifacts");
    w.begin_array();
    for (const auto& art : result.artifacts) {
      w.begin_object();
      w.kv("scenario", art.scenario);
      w.kv("entry", art.entry);
      w.kv("trial", art.trial);
      w.kv("seed", static_cast<std::int64_t>(art.seed));
      w.kv("path", art.path);
      w.kv("truncated_run", art.truncated_run);
      w.end_object();
    }
    w.end_array();
  }
  w.end_object();
}

std::string to_json(const CampaignResult& result) {
  JsonWriter w;
  write_json(w, result);
  return w.str();
}

}  // namespace cg::obs
