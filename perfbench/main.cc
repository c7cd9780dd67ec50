/**
 * @file
 * The benchmark's workload process.
 *
 *   perfbench --workload <sweep_cold|serve_mixed|cache_warm>
 *             --seed <n> --seconds <s> --trace <0|1> --dir <scratch dir>
 *
 * Runs one workload and writes <dir>/result.json (metrics, per-layer
 * numbers, digest, same-answer findings) and, for traced runs,
 * <dir>/spans.json. run.py starts one such process per benchmark run
 * with a clean environment and a fresh scratch directory, checks the
 * digest and prints the result line; run it directly to debug.
 */

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "common/logging.hh"
#include "perfbench.hh"
#include "trace.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload <name> "
                 "--seed <n> --seconds <s> --trace <0|1> --dir <dir>\n",
                 why);
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        std::string value = argv[++i];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = std::stoull(value);
        else if (flag == "--seconds")
            args.seconds = std::stod(value);
        else if (flag == "--trace")
            args.trace = value == "1";
        else if (flag == "--dir")
            args.dir = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (args.workload.empty() || args.dir.empty())
        usage("--workload and --dir are required");
    if (args.seconds <= 0.0)
        usage("--seconds must be positive");
    return args;
}

std::string
jsonString(const std::string &text)
{
    std::string out = "\"";
    for (char c : text) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

void
writeMap(std::FILE *file, const char *name,
         const std::map<std::string, double> &values)
{
    std::fprintf(file, "  %s: {", jsonString(name).c_str());
    const char *sep = "\n";
    for (const auto &[key, value] : values) {
        std::fprintf(file, "%s    %s: %.17g", sep, jsonString(key).c_str(),
                     value);
        sep = ",\n";
    }
    std::fputs("\n  },\n", file);
}

} // namespace

int
main(int argc, char **argv)
{
    Args args = parse(argc, argv);
    mmgpu::setInformEnabled(false);
    // Cold means cold: a scratch directory left by an earlier run
    // would hand this one its run caches.
    std::error_code error;
    if (std::filesystem::exists(args.dir, error) &&
        !std::filesystem::is_empty(args.dir, error))
        usage(("scratch directory " + args.dir + " is not empty").c_str());
    std::filesystem::create_directories(args.dir);

    Report report;
    if (args.workload == "sweep_cold")
        report = runSweepCold(args);
    else if (args.workload == "serve_mixed")
        report = runServeMixed(args);
    else if (args.workload == "cache_warm")
        report = runCacheWarm(args);
    else
        usage(("unknown workload " + args.workload).c_str());

    report.e2e["setup_s"] = median(report.setupSeconds);
    if (args.trace) {
        spanMetrics(report);
        report.layers["gpujoule.calibrate_s"] =
            median(report.calibrateSeconds);
        report.layers["fail_frac"] =
            report.attempted
                ? static_cast<double>(report.failed) /
                      static_cast<double>(report.attempted)
                : 0.0;
        // Serve counters of workloads that run no service.
        for (const char *name :
             {"serve.queue_depth_max", "serve.busy_shards_mean",
              "serve.sims_started", "serve.dedup_attached",
              "serve.rejected"})
            report.layers.try_emplace(name, 0.0);
        std::vector<Span> spans = Tracer::get().spans();
        if (!writeSpans(spans, selfTimes(spans), args.dir + "/spans.json"))
            report.mismatch("could not write spans.json");
    }

    const std::string path = args.dir + "/result.json";
    std::FILE *file = std::fopen(path.c_str(), "w");
    if (file == nullptr) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
    }
    std::fprintf(file, "{\n  \"workload\": %s,\n  \"seed\": %llu,\n",
                 jsonString(args.workload).c_str(),
                 static_cast<unsigned long long>(args.seed));
    std::fprintf(file, "  \"trace\": %s,\n  \"workers\": %u,\n",
                 args.trace ? "true" : "false", hostWorkers());
    std::fprintf(file, "  \"compiler\": %s,\n  \"build_type\": %s,\n",
                 jsonString(__VERSION__).c_str(),
                 jsonString(PERFBENCH_BUILD_TYPE).c_str());
    std::fprintf(file, "  \"attempted\": %llu,\n  \"failed\": %llu,\n",
                 static_cast<unsigned long long>(report.attempted),
                 static_cast<unsigned long long>(report.failed));
    std::fprintf(file, "  \"digest\": %s,\n  \"digest_points\": %zu,\n",
                 jsonString(report.digest).c_str(), report.digestPoints);
    writeMap(file, "e2e", report.e2e);
    writeMap(file, "layers", report.layers);
    writeMap(file, "notes", report.notes);
    std::fputs("  \"mismatches\": [", file);
    for (std::size_t i = 0; i < report.mismatches.size(); ++i)
        std::fprintf(file, "%s\n    %s", i ? "," : "",
                     jsonString(report.mismatches[i]).c_str());
    std::fputs("\n  ]\n}\n", file);
    if (std::fclose(file) != 0) {
        std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
        return 1;
    }
    return 0;
}
