/// Splash-style composite modeling (Sections 2.2-2.3 and 4.2): two
/// loosely-coupled component models — a weather generator and a crop-yield
/// model — communicate only through datasets. A compiled schema mapping
/// harmonizes the hand-off (unit conversion + provenance column), a time
/// aligner coarsens daily weather to the crop model's weekly ticks, and
/// the experiment manager sweeps the composite's parameters over a Latin
/// hypercube, fitting a kriging metamodel for "simulation on demand".

#include <cmath>
#include <cstdio>

#include "composite/experiment.h"
#include "doe/designs.h"
#include "metamodel/kriging.h"
#include "obs/http.h"
#include "table/schema_mapping.h"
#include "timeseries/align.h"
#include "util/check.h"
#include "util/distributions.h"

using namespace mde;  // NOLINT — example brevity

namespace {

/// Component model 1: daily temperature in Fahrenheit for one season.
timeseries::TimeSeries WeatherModel(double warming, Rng& rng) {
  timeseries::TimeSeries daily(1);
  for (int day = 0; day < 120; ++day) {
    const double seasonal =
        65.0 + warming + 18.0 * std::sin(M_PI * day / 120.0);
    MDE_CHECK(daily.Append(day, seasonal + SampleNormal(rng, 0.0, 4.0)).ok());
  }
  return daily;
}

/// Component model 2: crop yield from weekly Celsius temperatures —
/// growth peaks at an optimum temperature, scaled by irrigation.
double CropModel(const timeseries::TimeSeries& weekly_c, double irrigation,
                 Rng& rng) {
  double yield = 0.0;
  for (size_t week = 0; week < weekly_c.size(); ++week) {
    const double t = weekly_c.value(week);
    const double stress = (t - 24.0) * (t - 24.0) / 90.0;
    yield += std::max(0.0, 1.0 - stress) * (0.6 + 0.4 * irrigation);
  }
  return yield + SampleNormal(rng, 0.0, 0.15);
}

/// The data hand-off: daily Fahrenheit table -> weekly Celsius series.
/// Schema alignment (F -> C, provenance) then time alignment (aggregate
/// daily -> weekly), exactly the two Splash transformation classes.
Result<timeseries::TimeSeries> Harmonize(const timeseries::TimeSeries& daily_f) {
  // 1. Schema alignment on the tabular form.
  table::Schema src({{"day", table::DataType::kInt64},
                     {"temp_f", table::DataType::kDouble}});
  table::Table src_table{src};
  for (size_t i = 0; i < daily_f.size(); ++i) {
    src_table.Append({table::Value(static_cast<int64_t>(daily_f.time(i))),
                      table::Value(daily_f.value(i))});
  }
  table::Schema dst({{"day", table::DataType::kInt64},
                     {"temp_c", table::DataType::kDouble},
                     {"source", table::DataType::kString}});
  using CM = table::SchemaMapping::ColumnMapping;
  MDE_ASSIGN_OR_RETURN(
      table::SchemaMapping mapping,
      table::SchemaMapping::Compile(
          src, dst,
          {{"day", CM::Kind::kCopy, "day", {}, nullptr},
           {"temp_c", CM::Kind::kComputed, "", {},
            [](const table::Row& r) {
              return table::Value((r[1].AsDouble() - 32.0) * 5.0 / 9.0);
            }},
           {"source", CM::Kind::kConstant, "",
            table::Value("weather-model-v1"), nullptr}}));
  MDE_ASSIGN_OR_RETURN(table::Table celsius, mapping.Apply(src_table));

  // 2. Time alignment: daily -> weekly means.
  timeseries::TimeSeries daily_c(1);
  for (size_t i = 0; i < celsius.num_rows(); ++i) {
    const table::RowView r = celsius.row(i);
    MDE_RETURN_NOT_OK(daily_c.Append(
        static_cast<double>(r[0].AsInt()), r[1].AsDouble()));
  }
  std::vector<double> weekly_ticks;
  for (double t = 6.0; t < 120.0; t += 7.0) weekly_ticks.push_back(t);
  return timeseries::AggregateAlign(daily_c, weekly_ticks,
                                    timeseries::AggMethod::kMean);
}

/// The composite model as one parameterized simulation for the experiment
/// manager: parameters (warming, irrigation) -> yield.
Result<double> CompositeSim(const std::map<std::string, double>& params,
                            Rng& rng) {
  timeseries::TimeSeries daily = WeatherModel(params.at("warming"), rng);
  MDE_ASSIGN_OR_RETURN(timeseries::TimeSeries weekly, Harmonize(daily));
  return CropModel(weekly, params.at("irrigation"), rng);
}

}  // namespace

int main() {
  mde::obs::DiagServer::MaybeStartFromEnv();
  std::printf("Splash-style composite: weather -> (harmonize) -> crop\n\n");

  // One end-to-end run, narrated.
  Rng rng(1);
  timeseries::TimeSeries daily = WeatherModel(0.0, rng);
  auto weekly = Harmonize(daily).value();
  std::printf("weather model: %zu daily F readings -> harmonized to %zu "
              "weekly C ticks\n",
              daily.size(), weekly.size());
  std::printf("sample weekly temps (C):");
  for (size_t w = 0; w < weekly.size(); w += 4) {
    std::printf(" %.1f", weekly.value(w));
  }
  std::printf("\n\n");

  // Designed experiment over the composite's parameters.
  Rng design_rng(7);
  linalg::Matrix design =
      doe::NearlyOrthogonalLatinHypercube(2, 17, 64, design_rng);
  std::vector<composite::ParameterSpec> params = {
      {"warming", 0.0, 10.0}, {"irrigation", 0.0, 1.0}};
  composite::ExperimentOptions opt;
  opt.replications = 6;
  auto experiment =
      composite::RunExperiment(design, params, CompositeSim, opt).value();
  std::printf("experiment: 17-point NOLH over (warming, irrigation), 6 "
              "replications each\n\n");
  std::printf("%10s %12s %12s %14s\n", "warming", "irrigation", "yield",
              "replication sd");
  for (size_t p = 0; p < 17; p += 4) {
    std::printf("%10.2f %12.2f %12.2f %14.3f\n",
                experiment.scaled_design(p, 0),
                experiment.scaled_design(p, 1),
                experiment.mean_response[p],
                std::sqrt(experiment.response_variance[p]));
  }

  // Metamodel: instant what-if exploration.
  metamodel::KrigingModel::Options kopt;
  kopt.fit_hyperparameters = true;
  auto surface = metamodel::KrigingModel::Fit(
                     experiment.scaled_design, experiment.mean_response,
                     kopt)
                     .value();
  std::printf("\nkriging metamodel, simulation on demand:\n");
  for (double warming : {0.0, 4.0, 8.0}) {
    std::printf("  warming %.0fC: predicted yield %.2f (dry) / %.2f "
                "(irrigated)\n",
                warming, surface.Predict({warming, 0.1}),
                surface.Predict({warming, 0.9}));
  }
  std::printf("\nthe metamodel answers what-if questions in microseconds; "
              "each real composite\nrun costs two component models plus two "
              "harmonization passes.\n");
  return 0;
}
