// crgen: generate synthetic conservation-rule datasets as CSV.
//
// Usage:
//   crgen --dataset=<name> --output=out.csv [options]
//
// Datasets: credit_card, people_count, router, router_bad, tcp, joblog,
//           wellbehaved, powergrid, powergrid_theft
// Common options: --n=<ticks> --seed=<k>
// Perturbation (applied after generation):
//   --perturb_fraction=<d>  remove d of total outbound at the peak
//   --loss                  do not compensate (default: delayed, not lost)
// An unknown flag is an error (exit 2).

#include <cstdio>
#include <string>

#include "datagen/credit_card.h"
#include "datagen/job_log.h"
#include "datagen/people_count.h"
#include "datagen/perturb.h"
#include "datagen/power_grid.h"
#include "datagen/router.h"
#include "datagen/tcp_trace.h"
#include "io/csv.h"
#include "util/flags.h"

namespace {

using namespace conservation;

int Fail(const std::string& message) {
  std::fprintf(stderr, "crgen: %s\n", message.c_str());
  return 1;
}

util::Result<series::CountSequence> Generate(const std::string& dataset,
                                             int64_t n, uint64_t seed) {
  if (dataset == "credit_card") {
    datagen::CreditCardParams params;
    params.seed = seed;
    return datagen::GenerateCreditCard(params).counts;
  }
  if (dataset == "people_count") {
    datagen::PeopleCountParams params;
    params.seed = seed;
    return datagen::GeneratePeopleCount(params).counts;
  }
  if (dataset == "router" || dataset == "router_bad") {
    datagen::RouterParams params;
    params.profile = dataset == "router"
                         ? datagen::RouterProfile::kClean
                         : datagen::RouterProfile::kUnmonitoredLink;
    if (n > 0) params.num_ticks = n;
    params.seed = seed;
    return datagen::GenerateRouter(params).counts;
  }
  if (dataset == "tcp") {
    datagen::TcpTraceParams params;
    if (n > 0) params.num_ticks = n;
    params.seed = seed;
    return datagen::GenerateTcpTrace(params).counts;
  }
  if (dataset == "joblog") {
    datagen::JobLogParams params;
    if (n > 0) params.num_ticks = n;
    params.seed = seed;
    return datagen::GenerateJobLog(params).counts;
  }
  if (dataset == "wellbehaved") {
    return datagen::GenerateWellBehavedTraffic(n > 0 ? n : 906, seed);
  }
  if (dataset == "powergrid" || dataset == "powergrid_theft") {
    datagen::PowerGridParams params;
    if (n > 0) params.num_ticks = n;
    params.seed = seed;
    if (dataset == "powergrid_theft") {
      params.theft_start_tick = params.num_ticks / 3;
    }
    return datagen::GeneratePowerGrid(params).counts;
  }
  return util::Status::InvalidArgument("unknown dataset: " + dataset);
}

}  // namespace

int main(int argc, char** argv) {
  util::FlagParser flags;
  if (util::Status status = flags.Parse(argc, argv); !status.ok()) {
    return Fail(status.ToString());
  }
  const std::string dataset = flags.GetStringOr("dataset", "");
  const std::string output = flags.GetStringOr("output", "");
  if (dataset.empty() || output.empty()) {
    return Fail("required: --dataset=<name> --output=<path> "
                "(see header comment for dataset names)");
  }
  auto n = flags.GetIntOr("n", 0);
  auto seed = flags.GetIntOr("seed", 12345);
  if (!n.ok()) return Fail(n.status().ToString());
  if (!seed.ok()) return Fail(seed.status().ToString());
  auto perturb_fraction = flags.GetDoubleOr("perturb_fraction", 0.0);
  if (!perturb_fraction.ok()) {
    return Fail(perturb_fraction.status().ToString());
  }
  auto loss = flags.GetBoolOr("loss", false);
  if (!loss.ok()) return Fail(loss.status().ToString());
  if (util::Status status = flags.CheckAllRead(); !status.ok()) {
    std::fprintf(stderr, "crgen: %s\n", status.ToString().c_str());
    return 2;
  }

  auto counts =
      Generate(dataset, *n, static_cast<uint64_t>(*seed));
  if (!counts.ok()) return Fail(counts.status().ToString());

  if (*perturb_fraction > 0.0) {
    datagen::PerturbationSpec spec;
    spec.fraction = *perturb_fraction;
    spec.compensate = !*loss;
    spec.latest_start_fraction = 0.5;
    spec.seed = static_cast<uint64_t>(*seed) + 1;
    datagen::PerturbationInfo info;
    *counts = datagen::ApplyPerturbation(*counts, spec, &info);
    std::fprintf(stderr,
                 "crgen: perturbed drop [%lld, %lld]%s\n",
                 static_cast<long long>(info.drop_begin),
                 static_cast<long long>(info.drop_end),
                 *loss ? " (loss)" : " (delayed)");
  }

  if (util::Status status = io::WriteCountsCsv(output, *counts);
      !status.ok()) {
    return Fail(status.ToString());
  }
  std::printf("crgen: wrote %lld ticks of '%s' to %s\n",
              static_cast<long long>(counts->n()), dataset.c_str(),
              output.c_str());
  return 0;
}
