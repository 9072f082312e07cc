/**
 * @file
 * perfbench: the end-to-end benchmark of anchortlb.
 *
 *   perfbench --workload <row_mcf_medium|row_gups_trace|serve_mixed>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             [--pins <pins.json>] [--out <dir>]
 *
 * Prints what it measured, then one JSON line: {"correct", "attempted",
 * "failed", "metrics"}. --trace 0 reports the end-to-end metrics;
 * --trace 1 runs the traced pass and reports the per-layer metrics,
 * writing a Chrome trace-event file under --out. Exits 1 when an output
 * check failed, 2 on bad arguments or a failed set-up.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>

#include "bench.hh"
#include "serve/wire.hh"

namespace
{

using perfbench::Outcome;
using perfbench::RunArgs;

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload <row_mcf_medium|"
                 "row_gups_trace|serve_mixed> --seed <n> --seconds <s> "
                 "--trace <0|1> [--pins <file>] [--out <dir>]\n";
    std::exit(2);
}

/** Read the default seed and pinned row digests from @p path. */
void
readPins(const std::string &path, RunArgs &args)
{
    std::ifstream file(path);
    std::stringstream text;
    text << file.rdbuf();
    atlb::JsonValue root;
    std::string error;
    if (!file || !atlb::parseJson(text.str(), root, &error))
        usage("cannot read pins " + path + ": " + error);
    if (const atlb::JsonValue *seed = root.find("default_seed"))
        args.pin_seed = seed->u64;
    if (const atlb::JsonValue *digests = root.find("row_digests")) {
        for (const auto &[name, value] : digests->members)
            args.pinned_digests[name] =
                std::strtoull(value.text.c_str(), nullptr, 16);
    }
}

RunArgs
parseArgs(int argc, char **argv)
{
    RunArgs args;
    bool have_seed = false;
    for (int i = 1; i < argc; i += 2) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[i + 1];
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value.c_str(), nullptr, 10);
            have_seed = true;
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value.c_str(), nullptr);
        } else if (flag == "--trace") {
            args.trace = value == "1";
        } else if (flag == "--pins") {
            readPins(value, args);
        } else if (flag == "--out") {
            args.out_dir = value;
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (args.workload != "row_mcf_medium" &&
        args.workload != "row_gups_trace" && args.workload != "serve_mixed")
        usage("unknown workload '" + args.workload + "'");
    if (!have_seed || !(args.seconds > 0.0))
        usage("--seed and a positive --seconds are required");
    return args;
}

void
printResult(const Outcome &out)
{
    std::string metrics;
    bool finite = true;
    for (const perfbench::Metric &m : out.metrics()) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g",
                      std::isfinite(m.value) ? m.value : 0.0);
        finite = finite && std::isfinite(m.value);
        std::cout << "  " << m.name << " = " << value << " " << m.unit << "\n";
        metrics += (metrics.empty() ? "" : ", ") + ("\"" + m.name) +
                   "\": {\"value\": " + value + ", \"unit\": \"" + m.unit +
                   "\"}";
    }
    const bool correct = out.correct() && finite;
    std::cout << "  ops_failed_frac = "
              << static_cast<double>(out.failed()) /
                     static_cast<double>(std::max<std::uint64_t>(
                         1, out.attempted()))
              << " fraction (" << out.failed() << " of " << out.attempted()
              << ")\n";
    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << std::max<std::uint64_t>(1, out.attempted())
              << ", \"failed\": " << out.failed() + (finite ? 0 : 1)
              << ", \"metrics\": {" << metrics << "}}" << std::endl;
}

} // namespace

int
main(int argc, char **argv)
{
    const RunArgs args = parseArgs(argc, argv);
    Outcome out;
    try {
        std::filesystem::create_directories(args.out_dir);
        out = args.workload == "serve_mixed"
                  ? perfbench::runServeWorkload(args)
                  : perfbench::runRowWorkload(args);
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << args.workload << ": " << e.what()
                  << "\n";
        return 2;
    }
    printResult(out);
    return out.correct() ? 0 : 1;
}
