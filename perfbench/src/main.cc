/**
 * @file
 * perfbench: the end-to-end and per-layer benchmark of the RPS
 * serving, quantization and training stack.
 *
 *   perfbench prepare --workload W --seed N --artifact PATH
 *   perfbench run --workload W --seed N --seconds S --trace 0|1
 *                 --artifact PATH [--out DIR] [--commit SHA]
 *
 * `run` prints a metadata line and, as its last line, one JSON object
 * {"correct", "attempted", "failed", "metrics"}: the end-to-end
 * metrics with --trace 0, the per-layer metrics with --trace 1. The
 * full record (metadata, extra numbers, problems) and, when traced,
 * the Chrome trace land in the --out directory.
 */

#include <charconv>
#include <cstdlib>
#include <cmath>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "common/thread_pool.hh"
#include "tensor/gemm.hh"

using namespace perfbench;

namespace {

std::string
num(double v)
{
    char buf[64];
    auto res = std::to_chars(buf, buf + sizeof(buf), v);
    return std::string(buf, res.ptr);
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

std::string
metricsJson(const std::map<std::string, Metric> &m)
{
    std::string out = "{";
    for (const auto &kv : m) {
        if (out.size() > 1)
            out += ", ";
        out += quoted(kv.first) + ": {\"value\": " + num(kv.second.value) +
               ", \"unit\": " + quoted(kv.second.unit) + "}";
    }
    return out + "}";
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench prepare|run --workload W --seed N "
                 "[--seconds S --trace 0|1] --artifact PATH [--out DIR] "
                 "[--commit SHA]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage("missing mode");
    std::string mode = argv[1];
    Options o;
    std::string commit = "unknown";
    for (int i = 2; i < argc; ++i) {
        std::string k = argv[i];
        if (i + 1 >= argc)
            usage("missing value for " + k);
        std::string v = argv[++i];
        try {
            if (k == "--workload")
                o.workload = v;
            else if (k == "--seed")
                o.seed = std::stoull(v);
            else if (k == "--seconds")
                o.seconds = std::stoi(v);
            else if (k == "--trace")
                o.trace = std::stoi(v) != 0;
            else if (k == "--artifact")
                o.artifact = v;
            else if (k == "--out")
                o.outDir = v;
            else if (k == "--commit")
                commit = v;
            else
                usage("unknown option " + k);
        } catch (const std::logic_error &) {
            usage("bad value for " + k);
        }
    }
    if (o.workload != "mini_poisson" && o.workload != "r50_closed" &&
        o.workload != "rps_train")
        usage("unknown workload '" + o.workload + "'");
    if (o.artifact.empty())
        usage("--artifact is required");
    if (o.seconds < 1)
        usage("--seconds must be at least 1");

    // The global pool reads TWOINONE_THREADS once, at first use.
    setenv("TWOINONE_THREADS", std::to_string(poolThreads(o.workload)).c_str(),
           1);

    try {
        if (mode == "prepare") {
            prepareArtifact(o);
            return 0;
        }
        if (mode != "run")
            usage("unknown mode " + mode);

        RunResult r;
        if (o.workload == "mini_poisson")
            runMiniPoisson(o, r);
        else if (o.workload == "r50_closed")
            runR50Closed(o, r);
        else
            runRpsTrain(o, r);

        std::map<std::string, Metric> &m = o.trace ? r.perLayer : r.endToEnd;
        for (auto &kv : m) {
            if (!std::isfinite(kv.second.value)) {
                r.fail("metric " + kv.first + " is not finite");
                kv.second.value = 0.0;
            }
        }
        if (r.attempted == 0)
            r.fail("nothing was attempted");

        std::ostringstream meta;
        meta << "{\"workload\": " << quoted(o.workload)
             << ", \"seed\": " << o.seed << ", \"seconds\": " << o.seconds
             << ", \"trace\": " << (o.trace ? 1 : 0)
             << ", \"nproc\": " << std::thread::hardware_concurrency()
             << ", \"pool_threads\": "
             << twoinone::ThreadPool::global().threads()
             << ", \"isa_tier\": "
             << quoted(twoinone::gemm::isaTierName(
                    twoinone::gemm::activeIsaTier()))
             << ", \"build_type\": \"Release\", \"commit\": "
             << quoted(commit) << "}";
        std::string info = "{";
        for (const auto &kv : r.info) {
            if (info.size() > 1)
                info += ", ";
            info += quoted(kv.first) + ": " + num(kv.second);
        }
        info += "}";
        std::string problems = "[";
        for (const std::string &p : r.problems) {
            if (problems.size() > 1)
                problems += ", ";
            problems += quoted(p);
            std::cerr << "perfbench: " << p << "\n";
        }
        problems += "]";

        std::string result =
            std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
            ", \"attempted\": " + std::to_string(r.attempted) +
            ", \"failed\": " + std::to_string(r.failed) +
            ", \"metrics\": " + metricsJson(m) + "}";

        std::string path = o.outDir + "/result-" + o.workload + "-" +
                           std::to_string(o.seed) + "-trace" +
                           (o.trace ? "1" : "0") + ".json";
        std::ofstream f(path);
        f << "{\"meta\": " << meta.str() << ",\n \"info\": " << info
          << ",\n \"problems\": " << problems
          << ",\n \"end_to_end\": " << metricsJson(r.endToEnd)
          << ",\n \"per_layer\": " << metricsJson(r.perLayer)
          << ",\n \"result\": " << result << "}\n";

        std::cout << meta.str() << "\n" << result << std::endl;
        return 0;
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << o.workload << " failed: " << e.what()
                  << "\n";
        return 1;
    }
}
