#include "epi/indemics.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "util/check.h"
#include "util/distributions.h"

namespace mde::epi {

using table::CmpOp;
using table::DataType;
using table::Query;
using table::Row;
using table::Schema;
using table::Table;
using table::Value;

EpidemicSim::EpidemicSim(ContactNetwork network, const DiseaseConfig& config)
    : network_(std::move(network)), config_(config), rng_(config.seed) {
  SeedInfections();
}

void EpidemicSim::SeedInfections() {
  const size_t n = network_.num_people();
  MDE_CHECK_GT(n, 0u);
  size_t seeded = 0;
  while (seeded < std::min(config_.initial_infections, n)) {
    const size_t i = rng_.NextBounded(n);
    Person& p = network_.person(i);
    if (p.health == Health::kSusceptible) {
      p.health = Health::kInfectious;
      p.days_in_state = 1 + static_cast<int>(SampleGeometric(
                                rng_, 1.0 / config_.mean_infectious_days));
      ++seeded;
    }
  }
}

DailyStats EpidemicSim::Advance(size_t days) {
  for (size_t d = 0; d < days; ++d) {
    ++day_;
    DailyStats stats;
    stats.day = day_;
    // Behavioral sweep: fear tracks infectious prevalence among contacts.
    if (config_.behavioral_adaptation) {
      std::vector<double> new_fear(network_.num_people(), 0.0);
      for (size_t i = 0; i < network_.num_people(); ++i) {
        const auto& edges = network_.incident(i);
        size_t infectious_contacts = 0;
        for (size_t e : edges) {
          const Contact& c = network_.contact(e);
          const size_t other = c.a == i ? c.b : c.a;
          if (network_.person(other).health == Health::kInfectious) {
            ++infectious_contacts;
          }
        }
        const double prevalence =
            edges.empty() ? 0.0
                          : static_cast<double>(infectious_contacts) /
                                static_cast<double>(edges.size());
        new_fear[i] = std::min(
            1.0, config_.fear_decay * network_.person(i).fear +
                     config_.fear_gain * prevalence);
      }
      for (size_t i = 0; i < network_.num_people(); ++i) {
        network_.person(i).fear = new_fear[i];
      }
    }
    // Transmission sweep: each infectious person exposes susceptible
    // neighbors with probability 1 - (1-t)^hours per edge; fearful pairs
    // shorten their contact time.
    std::vector<size_t> newly_exposed;
    for (size_t i = 0; i < network_.num_people(); ++i) {
      const Person& p = network_.person(i);
      if (p.health != Health::kInfectious || p.quarantined) continue;
      for (size_t e : network_.incident(i)) {
        const Contact& c = network_.contact(e);
        if (!type_active_[static_cast<size_t>(c.type)]) continue;
        const size_t other = c.a == i ? c.b : c.a;
        Person& q = network_.person(other);
        if (q.health != Health::kSusceptible || q.quarantined) continue;
        double hours = c.hours;
        if (config_.behavioral_adaptation) {
          const double pair_fear = 0.5 * (p.fear + q.fear);
          hours *= 1.0 - config_.max_contact_reduction * pair_fear;
        }
        const double p_infect =
            1.0 - std::pow(1.0 - config_.transmissibility, hours);
        if (SampleBernoulli(rng_, p_infect)) newly_exposed.push_back(other);
      }
    }
    for (size_t i : newly_exposed) {
      Person& q = network_.person(i);
      if (q.health == Health::kSusceptible) {
        q.health = Health::kExposed;
        q.days_in_state = 1 + static_cast<int>(SampleGeometric(
                                  rng_, 1.0 / config_.mean_latent_days));
        ++stats.new_infections;
      }
    }
    // Progression sweep.
    for (size_t i = 0; i < network_.num_people(); ++i) {
      Person& p = network_.person(i);
      if (p.health == Health::kExposed || p.health == Health::kInfectious) {
        if (--p.days_in_state <= 0) {
          if (p.health == Health::kExposed) {
            p.health = Health::kInfectious;
            p.days_in_state = 1 + static_cast<int>(SampleGeometric(
                                      rng_, 1.0 / config_.mean_infectious_days));
          } else {
            p.health = Health::kRecovered;
          }
        }
      }
    }
    for (const Person& p : network_.people()) {
      switch (p.health) {
        case Health::kSusceptible:
          ++stats.susceptible;
          break;
        case Health::kExposed:
          ++stats.exposed;
          break;
        case Health::kInfectious:
          ++stats.infectious;
          break;
        case Health::kRecovered:
          ++stats.recovered;
          break;
      }
    }
    history_.push_back(stats);
  }
  return history_.empty() ? DailyStats{} : history_.back();
}

size_t EpidemicSim::TotalInfected() const {
  size_t total = 0;
  for (const Person& p : network_.people()) {
    if (p.health != Health::kSusceptible && !p.immunized_by_vaccine) ++total;
  }
  return total;
}

size_t EpidemicSim::PeakInfectious() const {
  size_t peak = 0;
  for (const DailyStats& s : history_) peak = std::max(peak, s.infectious);
  return peak;
}

std::shared_ptr<const table::ColumnarTable> EpidemicSim::PersonColumnar()
    const {
  table::ColumnarTableBuilder b{Schema({{"pid", DataType::kInt64},
                                        {"age", DataType::kInt64},
                                        {"household", DataType::kInt64},
                                        {"health", DataType::kString},
                                        {"vaccinated", DataType::kBool},
                                        {"quarantined", DataType::kBool},
                                        {"fear", DataType::kDouble}})};
  b.Reserve(network_.num_people());
  auto health_name = [](Health h) -> const char* {
    switch (h) {
      case Health::kSusceptible:
        return "S";
      case Health::kExposed:
        return "E";
      case Health::kInfectious:
        return "I";
      case Health::kRecovered:
        return "R";
    }
    return "?";
  };
  for (const Person& p : network_.people()) {
    b.column(0).AppendInt64(p.pid);
    b.column(1).AppendInt64(static_cast<int64_t>(p.age));
    b.column(2).AppendInt64(p.household);
    b.column(3).AppendString(health_name(p.health));
    b.column(4).AppendBool(p.vaccinated);
    b.column(5).AppendBool(p.quarantined);
    b.column(6).AppendDouble(p.fear);
  }
  auto cols = b.Finish();
  MDE_CHECK(cols.ok());
  return std::move(cols).value();
}

std::shared_ptr<const table::ColumnarTable>
EpidemicSim::InfectedPersonColumnar() const {
  table::ColumnarTableBuilder b{Schema({{"pid", DataType::kInt64}})};
  for (const Person& p : network_.people()) {
    if (p.health == Health::kInfectious) b.column(0).AppendInt64(p.pid);
  }
  auto cols = b.Finish();
  MDE_CHECK(cols.ok());
  return std::move(cols).value();
}

table::Table EpidemicSim::PersonTable() const {
  return Table::FromColumnar(PersonColumnar());
}

table::Table EpidemicSim::InfectedPersonTable() const {
  return Table::FromColumnar(InfectedPersonColumnar());
}

size_t EpidemicSim::Vaccinate(const std::vector<int64_t>& pids) {
  size_t immunized = 0;
  for (int64_t pid : pids) {
    MDE_CHECK(pid >= 0 &&
              static_cast<size_t>(pid) < network_.num_people());
    Person& p = network_.person(static_cast<size_t>(pid));
    if (p.vaccinated) continue;
    p.vaccinated = true;
    if (p.health == Health::kSusceptible &&
        SampleBernoulli(rng_, config_.vaccine_efficacy)) {
      p.health = Health::kRecovered;  // immune
      p.immunized_by_vaccine = true;
      ++immunized;
    }
  }
  return immunized;
}

void EpidemicSim::SetContactTypeActive(ContactType type, bool active) {
  type_active_[static_cast<size_t>(type)] = active;
}

bool EpidemicSim::ContactTypeActive(ContactType type) const {
  return type_active_[static_cast<size_t>(type)];
}

void EpidemicSim::Quarantine(const std::vector<int64_t>& pids) {
  for (int64_t pid : pids) {
    MDE_CHECK(pid >= 0 &&
              static_cast<size_t>(pid) < network_.num_people());
    network_.person(static_cast<size_t>(pid)).quarantined = true;
  }
}

Result<std::vector<int64_t>> EpidemicSim::PidsOf(const table::Table& t) {
  MDE_ASSIGN_OR_RETURN(size_t idx, t.schema().IndexOf("pid"));
  const table::Column& c = t.columnar()->col(idx);
  if (c.type != table::DataType::kInt64) {
    return Status::InvalidArgument("pid column is not int64");
  }
  if (!c.valid.empty()) {
    for (size_t i = 0; i < c.size; ++i) {
      if (!c.IsValid(i)) return Status::InvalidArgument("null pid");
    }
  }
  return std::vector<int64_t>(c.i64.begin(), c.i64.end());
}

Result<std::vector<DailyStats>> RunWithPolicy(
    EpidemicSim& sim, size_t total_days, size_t observe_every,
    const InterventionPolicy& policy) {
  if (observe_every == 0) {
    return Status::InvalidArgument("observe_every must be positive");
  }
  size_t elapsed = 0;
  while (elapsed < total_days) {
    const size_t chunk = std::min(observe_every, total_days - elapsed);
    sim.Advance(chunk);
    elapsed += chunk;
    if (policy) MDE_RETURN_NOT_OK(policy(sim, sim.current_day()));
  }
  return sim.history();
}

InterventionPolicy VaccinatePreschoolersPolicy(double trigger_fraction) {
  return [trigger_fraction](EpidemicSim& sim, size_t /*day*/) -> Status {
    // CREATE TABLE Preschool AS SELECT pid FROM Person WHERE 0 <= age <= 4.
    MDE_ASSIGN_OR_RETURN(
        table::Table preschool,
        Query(sim.PersonTable())
            .Where("age", CmpOp::kGe, int64_t{0})
            .Where("age", CmpOp::kLe, int64_t{4})
            .Select({"pid"})
            .Execute());
    const double n_preschool = static_cast<double>(preschool.num_rows());
    if (n_preschool == 0) return Status::OK();
    // WITH InfectedPreschool AS (SELECT pid FROM Preschool JOIN
    // InfectedPerson USING (pid)).
    MDE_ASSIGN_OR_RETURN(
        table::Table infected_preschool,
        Query(preschool)
            .Join(sim.InfectedPersonTable(), {"pid"}, {"pid"})
            .Execute());
    const double n_infected =
        static_cast<double>(infected_preschool.num_rows());
    // IF nInfectedPreschool > trigger * nPreschool THEN vaccinate Preschool.
    if (n_infected > trigger_fraction * n_preschool) {
      MDE_ASSIGN_OR_RETURN(std::vector<int64_t> pids,
                           EpidemicSim::PidsOf(preschool));
      sim.Vaccinate(pids);
    }
    return Status::OK();
  };
}

}  // namespace mde::epi
