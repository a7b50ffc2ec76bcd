// F-R7: Defense feature separation.
//
// Builds the simulated genuine/injected corpus and reports, per trace
// feature, the class means, standard deviations, and the d' separation
// statistic — the figure showing *why* the defense works before any
// classifier is involved.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench_util.h"
#include "defense/features.h"
#include "sim/corpus.h"

int main(int argc, char** argv) {
  using namespace ivc;
  const bench::options opts = bench::parse_options(argc, argv);
  bench::banner("F-R7", "non-linearity trace features: genuine vs injected");
  bench::json_report report{"F-R7", "trace feature separation"};
  const std::uint64_t seed = 7;
  report.set_seed(seed);

  sim::corpus_config cfg;
  cfg.rig = attack::long_range_rig();
  cfg.num_threads = opts.threads;
  const sim::defense_corpus corpus = sim::build_defense_corpus(cfg, seed);

  // Merge train+test: this figure is about distributions, not learning.
  defense::labelled_features all = corpus.train;
  for (std::size_t i = 0; i < corpus.test.size(); ++i) {
    all.x.push_back(corpus.test.x[i]);
    all.y.push_back(corpus.test.y[i]);
  }
  bench::note("corpus: %zu captures (%zu genuine / %zu injected)",
              all.size(),
              static_cast<std::size_t>(std::count(all.y.begin(), all.y.end(), 0)),
              static_cast<std::size_t>(std::count(all.y.begin(), all.y.end(), 1)));
  bench::rule();

  std::printf("%-26s %10s %10s %10s %10s %8s\n", "feature", "gen mean",
              "gen sd", "atk mean", "atk sd", "d'");
  for (std::size_t k = 0; k < defense::num_trace_features; ++k) {
    double mean[2] = {0.0, 0.0};
    double sq[2] = {0.0, 0.0};
    double count[2] = {0.0, 0.0};
    for (std::size_t i = 0; i < all.size(); ++i) {
      const int c = all.y[i];
      mean[c] += all.x[i][k];
      sq[c] += all.x[i][k] * all.x[i][k];
      count[c] += 1.0;
    }
    for (int c = 0; c < 2; ++c) {
      mean[c] /= count[c];
      sq[c] = std::sqrt(std::max(0.0, sq[c] / count[c] - mean[c] * mean[c]));
    }
    const double pooled =
        std::sqrt(0.5 * (sq[0] * sq[0] + sq[1] * sq[1])) + 1e-12;
    const double d_prime = (mean[1] - mean[0]) / pooled;
    const std::string name = defense::trace_features::names()[k];
    std::printf("%-26s %10.3f %10.3f %10.3f %10.3f %8.2f\n", name.c_str(),
                mean[0], sq[0], mean[1], sq[1], d_prime);
    report.add_metric(name + "_d_prime", d_prime);
  }

  bench::rule();
  bench::note("paper shape: the sub-voice trace features (correlation, band");
  bench::note("ratio) separate the classes by multiple pooled standard");
  bench::note("deviations; skew and high-band deficit add margin.");
  report.write(opts);
  return 0;
}
