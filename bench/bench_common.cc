#include "bench_common.h"

#include <cstring>
#include <sstream>
#include <utility>

#include "common/logging.h"
#include "common/macros.h"
#include "eval/metrics.h"
#include "har/har_dataset.h"
#include "obs/export.h"

namespace pilote {
namespace bench {

BenchConfig BenchConfig::FromArgs(int argc, char** argv) {
  // Strip --metrics-json=PATH / --trace-out=PATH first: they enable the
  // obs registry and arrange at-exit snapshots, and must not reach the
  // unknown-flag warning below.
  argc = obs::ConsumeMetricsFlags(argc, argv);
  BenchConfig config;
  config.pilote = core::PiloteConfig::Small();
  config.pilote.exemplars_per_class = 200;
  // --paper sets defaults, so it applies before the other flags wherever
  // it stands: --paper --rounds=2 runs two rounds.
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--paper") != 0) continue;
    config.paper_scale = true;
    config.pilote = core::PiloteConfig::Paper();
    config.pilote.exemplars_per_class = 200;
    config.train_per_class = 1000;
    config.test_per_class = 300;
    config.new_samples = 400;
    config.rounds = 5;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--paper") continue;  // applied above
    if (arg.rfind("--rounds=", 0) == 0) {
      config.rounds = std::atoi(arg.c_str() + std::strlen("--rounds="));
      PILOTE_CHECK_GT(config.rounds, 0);
    } else if (arg.rfind("--seed=", 0) == 0) {
      config.data_seed = static_cast<uint64_t>(
          std::atoll(arg.c_str() + std::strlen("--seed=")));
    } else {
      PILOTE_LOG(Warning) << "ignoring unknown flag " << arg;
    }
  }
  return config;
}

ScenarioData MakeScenario(const BenchConfig& config,
                          har::Activity new_activity) {
  ScenarioData scenario;
  scenario.new_activity = new_activity;

  std::vector<har::Activity> old_activities;
  for (har::Activity activity : har::AllActivities()) {
    if (activity != new_activity) old_activities.push_back(activity);
  }
  for (har::Activity activity : old_activities) {
    scenario.old_labels.push_back(har::ActivityLabel(activity));
  }

  // Distinct generator streams so train/new/test never share windows.
  har::HarDataGenerator train_gen(config.data_seed);
  har::HarDataGenerator new_gen(config.data_seed ^ 0xA5A5A5A5ULL);
  har::HarDataGenerator test_gen(config.data_seed ^ 0x5A5A5A5AULL);

  scenario.d_old =
      train_gen.GenerateBalanced(config.train_per_class, old_activities);
  scenario.d_new = new_gen.Generate(new_activity, config.new_samples);
  scenario.test = test_gen.GenerateBalanced(config.test_per_class);
  return scenario;
}

core::CloudPretrainResult Pretrain(const BenchConfig& config,
                                   const ScenarioData& scenario) {
  core::CloudPretrainer pretrainer(config.pilote);
  Result<core::CloudPretrainResult> result = pretrainer.Run(scenario.d_old);
  PILOTE_CHECK(result.ok()) << result.status().ToString();
  return std::move(result).value();
}

LearnerRun RunLearner(const std::string& strategy,
                      const core::CloudArtifact& artifact,
                      const BenchConfig& config, const ScenarioData& scenario,
                      uint64_t round_seed) {
  core::PiloteConfig round_config = config.pilote;
  round_config.seed = round_seed;
  round_config.incremental.seed = round_seed ^ 0x1234;

  LearnerRun run;
  Result<std::unique_ptr<core::EdgeLearner>> learner =
      core::MakeEdgeLearner(strategy, artifact, round_config);
  PILOTE_CHECK(learner.ok()) << learner.status().ToString();
  run.learner = std::move(learner).value();
  Result<core::TrainReport> report =
      run.learner->LearnNewClasses(scenario.d_new);
  PILOTE_CHECK(report.ok()) << report.status().ToString();
  run.report = std::move(report).value();
  run.accuracy = run.learner->Evaluate(scenario.test);
  return run;
}

std::string FormatMeanStd(const std::vector<double>& values) {
  eval::MeanStd stats = eval::Summarize(values);
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(4);
  os << stats.mean << " +/- " << stats.stddev;
  return os.str();
}

}  // namespace bench
}  // namespace pilote
