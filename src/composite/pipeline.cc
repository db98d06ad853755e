#include "composite/pipeline.h"

#include "util/check.h"

namespace mde::composite {

void Pipeline::AddStage(std::shared_ptr<const Model> model,
                        Transformation transform) {
  MDE_CHECK(model != nullptr);
  stages_.push_back({std::move(model), std::move(transform)});
}

Result<std::vector<double>> Pipeline::Execute(
    const std::vector<double>& input, Rng& rng) const {
  if (stages_.empty()) {
    return Status::FailedPrecondition("pipeline has no stages");
  }
  std::vector<double> data = input;
  for (const Stage& stage : stages_) {
    if (stage.transform) {
      MDE_ASSIGN_OR_RETURN(data, stage.transform(data));
    }
    MDE_ASSIGN_OR_RETURN(data, stage.model->Execute(data, rng));
  }
  return data;
}

Result<std::vector<double>> Pipeline::MonteCarlo(
    const std::vector<double>& input, size_t n, uint64_t seed) const {
  std::vector<double> outputs;
  outputs.reserve(n);
  Rng substream(seed);  // substream `rep` of `seed` at iteration `rep`
  for (size_t rep = 0; rep < n; ++rep) {
    Rng rng = substream;
    MDE_ASSIGN_OR_RETURN(std::vector<double> out, Execute(input, rng));
    if (out.empty()) {
      return Status::FailedPrecondition("pipeline produced empty output");
    }
    outputs.push_back(out[0]);
    substream.Jump();
  }
  return outputs;
}

double Pipeline::CostPerRun() const {
  double c = 0.0;
  for (const Stage& stage : stages_) c += stage.model->cost();
  return c;
}

}  // namespace mde::composite
