// sne_perfbench — runs one perfbench workload and prints its result.
//
//   sne_perfbench --workload night_survey|night_joint_all
//                 --seed N --seconds S --trace 0|1
//   sne_perfbench --print-pins [--gemm-tier scalar|avx2]
//
// Output: a machine record line and notes (lines starting with '#'),
// then, as the last line, one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 prints the end-to-end
// metrics; --trace 1 the per-layer ones. --print-pins prints the canary
// keys committed_pins() holds, for the running GEMM tier.
#include <cstdio>
#include <map>
#include <string>

#include "tensor/env.h"
#include "tensor/gemm.h"
#include "workloads.h"

using namespace perfbench;

namespace {

int usage(const char* why) {
  std::fprintf(stderr,
               "sne_perfbench: %s\n"
               "usage: sne_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\n"
               "       sne_perfbench --print-pins [--gemm-tier scalar|avx2]\n"
               "workloads: night_survey night_joint_all\n",
               why);
  return 2;
}

void print_pins() {
  for (const bool with_tier1 : {true, false}) {
    auto fx = build_fixture(with_tier1, 1, NightShape{}, 8);
    const CanaryPins pins = run_canary(*fx);
    std::printf("%s fp32 %s\n%s int8 %s\n",
                with_tier1 ? "cascade" : "joint_all",
                pins.fp32.to_string().c_str(),
                with_tier1 ? "cascade" : "joint_all",
                pins.int8.to_string().c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--print-pins") {
      args[key] = std::string("1");
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      return usage(("unexpected argument " + key).c_str());
    }
  }
  try {
    pin_runtime();
    if (args.count("--gemm-tier") &&
        args["--gemm-tier"] == sne::gemm_tier_name(sne::GemmTier::Scalar)) {
      sne::set_gemm_tier(sne::GemmTier::Scalar);
    }
    if (args.count("--print-pins")) {
      std::printf("# gemm tier %s\n", sne::gemm_tier_name(sne::gemm_tier()));
      print_pins();
      return 0;
    }

    RunOptions options;
    const auto seed = sne::env::parse_int64(args["--seed"]);
    const auto seconds = sne::env::parse_float64(args["--seconds"]);
    const auto trace = sne::env::parse_int64(args["--trace"]);
    if (!seed || *seed < 0) return usage("--seed needs a whole number >= 0");
    if (!seconds || *seconds <= 0.0) return usage("--seconds needs a number > 0");
    if (!trace || (*trace != 0 && *trace != 1)) return usage("--trace needs 0 or 1");
    options.seed = static_cast<std::uint64_t>(*seed);
    options.seconds = *seconds;
    options.trace = *trace == 1;

    const std::string workload = args["--workload"];
    RunResult result;
    if (workload == "night_survey") {
      result = run_night_survey(options);
    } else if (workload == "night_joint_all") {
      result = run_night_joint_all(options);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }

    std::printf("# machine %s\n", machine_record().to_json().c_str());
    for (const std::string& note : result.notes) {
      std::printf("# %s\n", note.c_str());
    }
    std::printf("%s\n", result_json(result).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sne_perfbench: error: %s\n", e.what());
    return 1;
  }
}
