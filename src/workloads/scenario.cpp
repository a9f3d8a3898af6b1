#include "workloads/scenario.hpp"

namespace rcmp::workloads {

namespace {

MultiScenarioConfig one_chain(ScenarioConfig cfg) {
  MultiScenarioConfig multi;
  multi.base = std::move(cfg);
  multi.chains = 1;
  return multi;
}

}  // namespace

Scenario::Scenario(ScenarioConfig cfg) : ms_(one_chain(std::move(cfg))) {}

// Both entry points draw the middleware's seed (start) before the fault
// source's (attach).

core::ChainResult Scenario::run(core::StrategyConfig strategy,
                                cluster::FailurePlan failures) {
  ms_.start(strategy);
  if (!failures.at_job_ordinals.empty()) {
    ms_.attach_chaos(cluster::kill_schedule(failures, ms_.cluster().size()));
  }
  return std::move(ms_.finish().front());
}

core::ChainResult Scenario::run_chaos(core::StrategyConfig strategy,
                                      cluster::FaultSchedule schedule) {
  ms_.start(strategy);
  ms_.attach_chaos(std::move(schedule));
  return std::move(ms_.finish().front());
}

core::ChainResult run_scenario(const ScenarioConfig& cfg,
                               core::StrategyConfig strategy,
                               cluster::FailurePlan failures) {
  Scenario s(cfg);
  return s.run(strategy, std::move(failures));
}

}  // namespace rcmp::workloads
