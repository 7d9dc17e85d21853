// Direct probes of single layers, timed from outside: nn::Module
// forward/backward per layer kind of a model, and
// clients::ShardSynthesizer::make_shard.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "clients/virtual_shard.h"
#include "nn/models.h"

namespace perfbench {

/// Median per-pass seconds and per-pass FLOPs of one layer kind (summed
/// over every layer of that kind in the model).
struct KernelTiming {
  double forward_s = 0.0;
  double backward_s = 0.0;
  double forward_flops = 0.0;
  double backward_flops = 0.0;
};

/// Layer kinds the probe reports, keyed by metric name ("conv2d",
/// "linear", "maxpool2d", "relu").
using KernelTimings = std::map<std::string, KernelTiming>;

/// Times Module::forward(train = true) and Module::backward of every layer
/// of a freshly built `spec` model on a `batch`-sample input drawn from
/// `seed`, over at least `min_passes` passes and until `budget_s` seconds
/// have gone by; reports per-kind medians over the passes.
KernelTimings probe_kernels(const fedtrip::nn::ModelSpec& spec,
                            std::size_t batch, std::uint64_t seed,
                            std::size_t min_passes, double budget_s);

/// Median seconds of one ShardSynthesizer::make_shard call over `calls`
/// client ids spread across the population.
double probe_make_shard(const fedtrip::clients::ShardSynthesizer& synth,
                        std::size_t calls);

}  // namespace perfbench
