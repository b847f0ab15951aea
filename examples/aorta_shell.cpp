// Interactive Aorta shell: type statements against a live simulated lab.
//
//   $ ./examples/aorta_shell
//   aorta> SHOW DEVICES;
//   aorta> EXPLAIN CREATE AQ snap AS SELECT photo(c.ip, s.loc, 'd')
//          FROM sensor s, camera c WHERE s.accel_x > 500 AND coverage(c.id, s.loc);
//   aorta> CREATE AQ snap AS SELECT ... ;
//   aorta> RUN 120            -- advance simulated time by 120 seconds
//   aorta> SHOW QUERIES;
//   aorta> QUIT
//
// Meta commands (not SQL): RUN <seconds>, STATS, TRACE [n], RESULTS <aq>,
// HELP, QUIT.
// The lab: two PTZ cameras, three motes (one spiking each minute), and a
// phone — enough to exercise every built-in action.
#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/aorta.h"
#include "util/strings.h"

using namespace aorta;

namespace {

void print_rows(const core::ExecResult& result) {
  if (!result.message.empty()) std::printf("%s\n", result.message.c_str());
  for (const auto& row : result.rows) {
    std::printf(" ");
    for (const auto& [column, value] : row) {
      std::printf(" %s=%s", column.c_str(),
                  device::value_to_string(value).c_str());
    }
    std::printf("\n");
  }
}

void print_stats(core::Aorta& sys) {
  core::SystemStats stats = sys.stats();
  std::printf("simulated time : %s\n", sys.loop().now().to_string().c_str());
  std::printf("network        : %llu sent, %llu delivered, %llu lost\n",
              static_cast<unsigned long long>(stats.network.sent),
              static_cast<unsigned long long>(stats.network.delivered),
              static_cast<unsigned long long>(stats.network.dropped_loss));
  std::printf("probes         : %llu (%llu timeouts)\n",
              static_cast<unsigned long long>(stats.probes.probes),
              static_cast<unsigned long long>(stats.probes.timeouts));
  std::printf("device locks   : %llu acquired, %llu contended, %llu waits "
              "timed out\n",
              static_cast<unsigned long long>(stats.locks.acquisitions),
              static_cast<unsigned long long>(stats.locks.contentions),
              static_cast<unsigned long long>(stats.locks.wait_timeouts));
}

// TRACE shows the query-level spans: fired events, action requests,
// batches and outcomes, and device health transitions.
bool query_level(const obs::Span& span) {
  return span.cat == obs::SpanCat::kAction ||
         span.cat == obs::SpanCat::kHealth ||
         (span.cat == obs::SpanCat::kEval && span.name.rfind("event:", 0) == 0);
}

}  // namespace

int main() {
  core::Config config;
  config.tracing = true;  // TRACE reads the span tracer
  core::Aorta sys(config);

  (void)sys.add_camera("cam1", "192.168.0.90", {{0, 0, 3}, 0.0});
  (void)sys.add_camera("cam2", "192.168.0.91", {{10, 8, 3}, 180.0});
  (void)sys.add_mote("door", {4, 2, 1});
  (void)sys.add_mote("window", {8, 6, 1});
  (void)sys.add_mote("hallway", {2, 7, 1}, /*hops=*/2);
  (void)sys.add_phone("manager", "+85291234567", {50, 50, 0});
  // The door rattles every minute.
  (void)sys.mote("door")->set_signal(
      "accel_x",
      devices::periodic_spike_signal(0.0, 800.0, util::Duration::seconds(60),
                                     util::Duration::seconds(2),
                                     util::Duration::seconds(15)));

  std::printf("Aorta shell — pervasive query processing on a simulated lab.\n");
  std::printf("Lab: cam1, cam2; motes door, window, hallway; phone manager.\n");
  std::printf("Type HELP for meta commands. End statements with ';'.\n\n");

  std::string buffer;
  std::string line;
  std::printf("aorta> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    std::string trimmed(util::trim(line));
    std::string upper = util::to_lower(trimmed);
    for (char& c : upper) c = static_cast<char>(std::toupper(c));

    if (buffer.empty()) {
      // Meta commands only at statement start.
      if (upper == "QUIT" || upper == "EXIT") break;
      if (upper == "HELP") {
        std::printf("meta commands:\n"
                    "  RUN <seconds>   advance simulated time\n"
                    "  STATS           system counters\n"
                    "  TRACE [n]       last n query-level trace spans\n"
                    "  RESULTS <aq>    recent rows of a continuous query\n"
                    "  QUIT            leave\n"
                    "statements: CREATE ACTION / CREATE AQ / SELECT /\n"
                    "            EXPLAIN / SHOW QUERIES|ACTIONS|DEVICES /\n"
                    "            DROP AQ <name>  — end with ';'\n");
        std::printf("aorta> ");
        std::fflush(stdout);
        continue;
      }
      if (upper == "STATS") {
        print_stats(sys);
        std::printf("aorta> ");
        std::fflush(stdout);
        continue;
      }
      if (upper == "TRACE" || upper.rfind("TRACE ", 0) == 0) {
        std::size_t limit = 20;
        if (upper.size() > 6) {
          limit = static_cast<std::size_t>(
              std::max(1, std::atoi(trimmed.substr(6).c_str())));
        }
        std::vector<obs::Span> trace;
        for (obs::Span& span : sys.tracer().snapshot()) {
          if (query_level(span)) trace.push_back(std::move(span));
        }
        std::size_t start = trace.size() > limit ? trace.size() - limit : 0;
        for (std::size_t i = start; i < trace.size(); ++i) {
          const obs::Span& span = trace[i];
          std::printf("  [%10.3f] %-8s %-24s %s\n", span.start.to_seconds(),
                      std::string(obs::span_cat_name(span.cat)).c_str(),
                      span.name.c_str(), span.detail.c_str());
        }
        if (trace.empty()) std::printf("  (trace empty)\n");
        std::printf("aorta> ");
        std::fflush(stdout);
        continue;
      }
      if (upper.rfind("RESULTS ", 0) == 0) {
        std::string name(util::trim(trimmed.substr(8)));
        auto rows = sys.executor().recent_results(name);
        if (rows.empty()) {
          std::printf("  (no results for '%s')\n", name.c_str());
        }
        for (const auto& tr : rows) {
          std::printf("  [%10.3f]", tr.at.to_seconds());
          for (const auto& [column, value] : tr.row) {
            std::printf(" %s=%s", column.c_str(),
                        device::value_to_string(value).c_str());
          }
          std::printf("\n");
        }
        std::printf("aorta> ");
        std::fflush(stdout);
        continue;
      }
      if (upper.rfind("RUN ", 0) == 0) {
        double seconds = std::atof(trimmed.substr(4).c_str());
        if (seconds <= 0) {
          std::printf("usage: RUN <seconds>\n");
        } else {
          sys.run_for(util::Duration::seconds(seconds));
          std::printf("advanced to %s\n", sys.loop().now().to_string().c_str());
        }
        std::printf("aorta> ");
        std::fflush(stdout);
        continue;
      }
    }

    buffer += line;
    buffer += ' ';
    if (trimmed.empty() || trimmed.back() != ';') {
      std::printf("   ... ");
      std::fflush(stdout);
      continue;
    }

    auto result = sys.exec(buffer);
    buffer.clear();
    if (result.is_ok()) {
      print_rows(result.value());
    } else {
      std::printf("error: %s\n", result.status().to_string().c_str());
    }
    std::printf("aorta> ");
    std::fflush(stdout);
  }
  std::printf("\nbye\n");
  return 0;
}
