#include "probe.h"

#include <algorithm>
#include <vector>

#include "ledger.h"
#include "stats.h"
#include "tensor/rng.h"

namespace perfbench {

namespace {

/// Metric name of a layer kind the probe reports; nullptr for the rest
/// (Flatten only reshapes).
const char* kind_key(const std::string& module_name) {
  if (module_name == "Conv2d") return "conv2d";
  if (module_name == "Linear") return "linear";
  if (module_name == "MaxPool2d") return "maxpool2d";
  if (module_name == "ReLU") return "relu";
  return nullptr;
}

fedtrip::Tensor random_tensor(fedtrip::Shape shape, fedtrip::Rng& rng) {
  fedtrip::Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    t[static_cast<std::size_t>(i)] = rng.normal();
  }
  return t;
}

}  // namespace

KernelTimings probe_kernels(const fedtrip::nn::ModelSpec& spec,
                            std::size_t batch, std::uint64_t seed,
                            std::size_t min_passes, double budget_s) {
  auto model = fedtrip::nn::build_model(spec, seed);
  fedtrip::Rng rng(seed ^ 0x9B0BEull);
  const auto n = static_cast<std::int64_t>(batch);
  const fedtrip::Tensor input =
      random_tensor({n, spec.channels, spec.height, spec.width}, rng);

  struct Samples {
    std::vector<double> forward_s;
    std::vector<double> backward_s;
  };
  std::map<std::string, Samples> samples;
  const auto probe_start = Clock::now();
  for (std::size_t pass = 0;
       pass < min_passes ||
       seconds_between(probe_start, Clock::now()) < budget_s;
       ++pass) {
    std::map<std::string, double> fwd;
    std::map<std::string, double> bwd;
    model->zero_grad();
    fedtrip::Tensor x = input;
    for (std::size_t i = 0; i < model->size(); ++i) {
      const auto t0 = Clock::now();
      x = model->module(i).forward(x, true);
      const char* key = kind_key(model->module(i).name());
      if (key != nullptr) fwd[key] += seconds_between(t0, Clock::now());
    }
    fedtrip::Tensor g = random_tensor(x.shape(), rng);
    for (std::size_t i = model->size(); i-- > 0;) {
      const auto t0 = Clock::now();
      g = model->module(i).backward(g);
      const char* key = kind_key(model->module(i).name());
      if (key != nullptr) bwd[key] += seconds_between(t0, Clock::now());
    }
    for (const auto& [key, s] : fwd) samples[key].forward_s.push_back(s);
    for (const auto& [key, s] : bwd) samples[key].backward_s.push_back(s);
  }
  // Layers report FLOPs for the geometry of their last forward pass.
  KernelTimings out;
  for (std::size_t i = 0; i < model->size(); ++i) {
    const char* key = kind_key(model->module(i).name());
    if (key == nullptr) continue;
    KernelTiming& k = out[key];
    k.forward_flops += model->module(i).forward_flops_per_sample() *
                       static_cast<double>(batch);
    k.backward_flops += model->module(i).backward_flops_per_sample() *
                        static_cast<double>(batch);
  }
  for (auto& [key, k] : out) {
    k.forward_s = median(samples[key].forward_s);
    k.backward_s = median(samples[key].backward_s);
  }
  return out;
}

double probe_make_shard(const fedtrip::clients::ShardSynthesizer& synth,
                        std::size_t calls) {
  std::vector<double> per_call;
  per_call.reserve(calls);
  const std::size_t stride = std::max<std::size_t>(
      1, synth.num_clients() / std::max<std::size_t>(calls, 1));
  for (std::size_t i = 0; i < calls; ++i) {
    const auto t0 = Clock::now();
    const auto shard = synth.make_shard((i * stride) % synth.num_clients());
    per_call.push_back(seconds_between(t0, Clock::now()));
  }
  return median(per_call);
}

}  // namespace perfbench
