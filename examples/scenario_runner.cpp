// scenario_runner: the CLI face of qrm::scenario. Lists and describes the
// built-in registry, runs campaigns (registry subsets or declarative sweep
// files) through CampaignRunner, and writes CSV/JSON reports.
//
//   scenario_runner list
//   scenario_runner describe <name>
//   scenario_runner run [--filter <substr|tag>] [--workers N]
//                       [--replan scratch|delta]
//                       [--file <campaign.txt>] [--csv <path>] [--json <path>]
//                       [--shards N] [--shard-index i] [--deterministic]
//                       [--plan-cache on|off]
//   scenario_runner merge-csv <out.csv> <shard.csv...>
//   scenario_runner merge-json <out.json> <shard.json...>
//
// Sharded campaigns: `--shards N --shard-index i` partitions the filtered
// matrix by scenario-name hash and runs only shard i — launch one process
// per shard, write per-shard reports with --deterministic, and reassemble
// them with merge-csv/merge-json. The merged artifact is byte-identical to
// what a 1-shard --deterministic run writes. `--shards N` needs
// `--shard-index`.
//
// Exit codes: 0 on success, 1 on usage errors, 2 when a run fails (bad
// spec file, filter matching nothing, planner precondition, merge error).

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/campaign.hpp"
#include "scenario/registry.hpp"
#include "scenario/report.hpp"
#include "util/table.hpp"

namespace {

using namespace qrm;

int usage() {
  std::cerr << "usage: scenario_runner list\n"
            << "       scenario_runner describe <name>\n"
            << "       scenario_runner run [--filter <substr|tag>] [--workers N]\n"
            << "                           [--replan scratch|delta]\n"
            << "                           [--file <campaign.txt>] [--csv <path>] "
               "[--json <path>]\n"
            << "                           [--shards N] [--shard-index i] [--deterministic]\n"
            << "                           [--plan-cache on|off]\n"
            << "       scenario_runner merge-csv <out.csv> <shard.csv...>\n"
            << "       scenario_runner merge-json <out.json> <shard.json...>\n";
  return 1;
}

/// Strict unsigned option parse: std::stoul would silently wrap "-1".
bool parse_u32(const std::string& text, std::uint32_t max, std::uint32_t& out) {
  char* end = nullptr;
  const unsigned long value = std::strtoul(text.c_str(), &end, 10);
  if (text.empty() || *end != '\0' || text[0] == '-' || value > max) return false;
  out = static_cast<std::uint32_t>(value);
  return true;
}

std::string join_tags(const std::vector<std::string>& tags) {
  std::string joined;
  for (const std::string& tag : tags) joined += (joined.empty() ? "" : ",") + tag;
  return joined;
}

int run_list() {
  TextTable table({"name", "grid", "target", "load", "algorithm", "arch", "shots", "tags"});
  for (const scenario::ScenarioSpec& spec : scenario::registry()) {
    const Region target = spec.target_region();
    table.add_row({spec.name, scenario::dims_text(spec.grid_height, spec.grid_width),
                   scenario::dims_text(target.rows, target.cols),
                   scenario::to_cstring(spec.load), spec.algorithm,
                   scenario::arch_key(spec.architecture), std::to_string(spec.shots),
                   join_tags(spec.tags)});
  }
  std::cout << table.render();
  return 0;
}

int run_describe(const std::string& name) {
  const scenario::ScenarioSpec& spec = scenario::find_scenario(name);
  std::cout << serialize(spec);
  return 0;
}

int run_campaign(const std::vector<std::string>& args) {
  scenario::CampaignConfig config;
  std::string file_path;
  std::string csv_path;
  std::string json_path;
  bool shard_index_given = false;
  scenario::ReportMode mode = scenario::ReportMode::Full;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    const bool has_value = i + 1 < args.size();
    if (arg == "--filter" && has_value) {
      config.filter = args[++i];
    } else if (arg == "--workers" && has_value) {
      std::uint32_t workers = 0;
      if (!parse_u32(args[++i], 4096, workers)) {
        std::cerr << "scenario_runner: --workers needs an integer in [0, 4096], got '"
                  << args[i] << "'\n";
        return usage();
      }
      config.exec.workers = workers;
    } else if (arg == "--replan" && has_value) {
      const std::string& value = args[++i];
      if (value != "scratch" && value != "delta") {
        std::cerr << "scenario_runner: --replan needs scratch|delta, got '" << value << "'\n";
        return usage();
      }
      // Overrides every spec's replan key; delta plans are bit-identical
      // to scratch, so reports are unchanged except timing.
      config.replan = value == "delta" ? qrm::ReplanMode::Delta : qrm::ReplanMode::Scratch;
    } else if (arg == "--shards" && has_value) {
      if (!parse_u32(args[++i], 4096, config.shards) || config.shards == 0) {
        std::cerr << "scenario_runner: --shards needs an integer in [1, 4096], got '"
                  << args[i] << "'\n";
        return usage();
      }
    } else if (arg == "--shard-index" && has_value) {
      if (!parse_u32(args[++i], 4095, config.shard_index)) {
        std::cerr << "scenario_runner: --shard-index needs an integer in [0, 4095], got '"
                  << args[i] << "'\n";
        return usage();
      }
      shard_index_given = true;
    } else if (arg == "--deterministic") {
      mode = scenario::ReportMode::Deterministic;
    } else if (arg == "--plan-cache" && has_value) {
      const std::string& value = args[++i];
      if (value != "on" && value != "off") {
        std::cerr << "scenario_runner: --plan-cache needs on|off, got '" << value << "'\n";
        return usage();
      }
      config.plan_cache = value == "on";
    } else if (arg == "--file" && has_value) {
      file_path = args[++i];
    } else if (arg == "--csv" && has_value) {
      csv_path = args[++i];
    } else if (arg == "--json" && has_value) {
      json_path = args[++i];
    } else {
      std::cerr << "scenario_runner: unknown or incomplete option '" << arg << "'\n";
      return usage();
    }
  }
  if (shard_index_given && config.shard_index >= config.shards) {
    std::cerr << "scenario_runner: --shard-index " << config.shard_index
              << " needs --shards > " << config.shard_index << "\n";
    return usage();
  }
  if (!shard_index_given && config.shards > 1) {
    std::cerr << "scenario_runner: --shards " << config.shards
              << " needs --shard-index (one process per shard, then merge-csv/merge-json)\n";
    return usage();
  }

  std::vector<scenario::ScenarioSpec> specs;
  if (file_path.empty()) {
    specs = scenario::registry();
  } else {
    std::ifstream file(file_path);
    if (!file) {
      std::cerr << "scenario_runner: cannot open '" << file_path << "'\n";
      return 2;
    }
    std::ostringstream text;
    text << file.rdbuf();
    specs = scenario::expand_sweeps(text.str());
  }

  const scenario::CampaignRunner runner(config);
  const scenario::CampaignReport report =
      shard_index_given ? runner.run_shard(specs) : runner.run(specs);

  TextTable table({"idx", "scenario", "shots", "success", "fill", "rounds", "commands",
                   "arch ovh", "p50 plan", "fingerprint"});
  for (const scenario::ScenarioOutcome& outcome : report.scenarios) {
    table.add_row({std::to_string(outcome.index), outcome.spec.name,
                   std::to_string(outcome.batch.shots.size()),
                   fmt_percent(outcome.batch.success_rate()),
                   fmt_percent(outcome.batch.mean_fill_rate()),
                   fmt_double(outcome.mean_rounds), std::to_string(outcome.batch.total_commands()),
                   fmt_time_us(outcome.arch_overhead_us), fmt_time_us(outcome.p50_plan_us),
                   scenario::hex_text(outcome.fingerprint)});
  }
  std::cout << table.render();
  std::cout << report.scenarios.size() << " scenarios, " << report.workers << " workers";
  if (config.shards > 1)
    std::cout << ", " << config.shards << " shards (ran shard " << config.shard_index << ")";
  std::cout << ", " << report.wall_us / 1000.0 << " ms, campaign fingerprint "
            << scenario::hex_text(report.fingerprint()) << "\n";
  if (config.plan_cache) {
    const qrm::exec::PlanCacheStats& cache = report.plan_cache;
    std::cout << "plan cache: " << cache.hits << " hits / " << cache.misses << " misses ("
              << fmt_percent(cache.hit_rate()) << " hit rate)\n";
  }

  if (!csv_path.empty()) {
    std::ofstream csv(csv_path);
    if (!csv) {
      std::cerr << "scenario_runner: cannot write '" << csv_path << "'\n";
      return 2;
    }
    scenario::write_csv(report, csv, mode);
    std::cerr << "wrote " << csv_path << "\n";
  }
  if (!json_path.empty()) {
    std::ofstream json(json_path);
    if (!json) {
      std::cerr << "scenario_runner: cannot write '" << json_path << "'\n";
      return 2;
    }
    scenario::write_json(report, json, mode);
    std::cerr << "wrote " << json_path << "\n";
  }
  return 0;
}

/// merge-csv / merge-json: reassemble per-shard deterministic reports into
/// the sequential artifact.
int run_merge(const std::string& kind, const std::vector<std::string>& args) {
  if (args.size() < 2) {
    std::cerr << "scenario_runner: merge needs an output path and at least one shard file\n";
    return usage();
  }
  std::vector<std::string> shard_texts;
  for (std::size_t i = 1; i < args.size(); ++i) {
    std::ifstream file(args[i]);
    if (!file) {
      std::cerr << "scenario_runner: cannot open '" << args[i] << "'\n";
      return 2;
    }
    std::ostringstream text;
    text << file.rdbuf();
    shard_texts.push_back(text.str());
  }
  const std::string merged = kind == "merge-csv"
                                 ? scenario::merge_csv_reports(shard_texts)
                                 : scenario::merge_json_reports(shard_texts);
  std::ofstream out(args[0]);
  if (!out) {
    std::cerr << "scenario_runner: cannot write '" << args[0] << "'\n";
    return 2;
  }
  out << merged;
  std::cerr << "merged " << shard_texts.size() << " shard reports into " << args[0] << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) return usage();
  try {
    if (args[0] == "list" && args.size() == 1) return run_list();
    if (args[0] == "describe" && args.size() == 2) return run_describe(args[1]);
    if (args[0] == "run") return run_campaign({args.begin() + 1, args.end()});
    if (args[0] == "merge-csv" || args[0] == "merge-json")
      return run_merge(args[0], {args.begin() + 1, args.end()});
  } catch (const std::exception& error) {
    std::cerr << "scenario_runner: " << error.what() << "\n";
    return 2;
  }
  return usage();
}
