#include "composite/experiment.h"

#include "doe/designs.h"
#include "util/stats.h"

namespace mde::composite {

Result<table::Table> ExperimentResult::AsTable(
    const std::vector<ParameterSpec>& params) const {
  if (params.size() != scaled_design.cols()) {
    return Status::InvalidArgument("one ParameterSpec per design column");
  }
  std::vector<table::ColumnSpec> cols;
  cols.push_back({"point", table::DataType::kInt64});
  for (const auto& p : params) {
    cols.push_back({p.name, table::DataType::kDouble});
  }
  cols.push_back({"mean_response", table::DataType::kDouble});
  cols.push_back({"response_variance", table::DataType::kDouble});
  table::Table t{table::Schema(std::move(cols))};
  for (size_t r = 0; r < scaled_design.rows(); ++r) {
    table::Row row;
    row.emplace_back(static_cast<int64_t>(r));
    for (size_t c = 0; c < scaled_design.cols(); ++c) {
      row.emplace_back(scaled_design(r, c));
    }
    row.emplace_back(mean_response[r]);
    row.emplace_back(response_variance[r]);
    t.Append(row);
  }
  return t;
}

Result<ExperimentResult> RunExperiment(
    const linalg::Matrix& coded_design,
    const std::vector<ParameterSpec>& params,
    const ParameterizedSimulation& sim, const ExperimentOptions& options) {
  if (params.size() != coded_design.cols()) {
    return Status::InvalidArgument("one ParameterSpec per design column");
  }
  if (options.replications == 0) {
    return Status::InvalidArgument("need >= 1 replication");
  }
  std::vector<double> lo, hi;
  for (const auto& p : params) {
    if (p.lo >= p.hi) {
      return Status::InvalidArgument("parameter range empty: " + p.name);
    }
    lo.push_back(p.lo);
    hi.push_back(p.hi);
  }
  ExperimentResult out;
  out.coded_design = coded_design;
  MDE_ASSIGN_OR_RETURN(out.scaled_design,
                       doe::ScaleDesign(coded_design, lo, hi));
  out.mean_response.assign(coded_design.rows(), 0.0);
  out.response_variance.assign(coded_design.rows(), 0.0);
  for (size_t point = 0; point < out.scaled_design.rows(); ++point) {
    // Templating: bind this design point's values to the parameter names.
    std::map<std::string, double> bound;
    for (size_t c = 0; c < params.size(); ++c) {
      bound[params[c].name] = out.scaled_design(point, c);
    }
    RunningStat stat;
    // Substream `rep` of this point's seed at iteration `rep`.
    Rng substream(options.seed + point * 1000003ULL);
    for (size_t rep = 0; rep < options.replications; ++rep) {
      Rng rng = substream;
      MDE_ASSIGN_OR_RETURN(double y, sim(bound, rng));
      stat.Add(y);
      substream.Jump();
    }
    out.mean_response[point] = stat.mean();
    out.response_variance[point] = stat.variance();
  }
  return out;
}

}  // namespace mde::composite
