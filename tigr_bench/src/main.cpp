/**
 * @file
 * tigr_bench: the service benchmark.
 *
 *   tigr_bench [--seed S] [--seconds T] [--trace [0|1]] [--smoke]
 *              [--workload W] [--results DIR] [--work-dir DIR]
 *
 * Without --workload it runs every workload, each in its own child
 * process (a re-exec of itself with --workload), so one workload's heap
 * and peak RSS never leak into the next. With --workload it runs that
 * one, prints each metric by name with its unit, and ends its output
 * with one JSON line: {"correct", "attempted", "failed", "metrics"}.
 * It exits 1 when any result disagrees with its reference.
 */
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "workloads.hpp"

extern char **environ;

namespace {

using tigr::bench::Json;
using tigr::bench::RunOptions;

[[noreturn]] void
usage(const std::string &problem)
{
    if (!problem.empty())
        std::cerr << "tigr_bench: " << problem << "\n";
    std::cerr
        << "usage: tigr_bench [--seed S] [--seconds T] [--trace [0|1]]\n"
           "                  [--smoke] [--workload read_mix|"
           "transform_churn|mutate_query|recover]\n"
           "                  [--results DIR] [--work-dir DIR]\n";
    std::exit(2);
}

RunOptions
parse(int argc, char **argv, bool &seconds_given)
{
    RunOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(arg + " needs a value");
            return argv[++i];
        };
        try {
            if (arg == "--workload") {
                options.workload = value();
            } else if (arg == "--seed") {
                options.seed = std::stoull(value());
            } else if (arg == "--seconds") {
                options.seconds = std::stod(value());
                seconds_given = true;
            } else if (arg == "--trace") {
                options.trace = true;
                if (i + 1 < argc && (std::strcmp(argv[i + 1], "0") == 0 ||
                                     std::strcmp(argv[i + 1], "1") == 0))
                    options.trace = std::strcmp(argv[++i], "1") == 0;
            } else if (arg == "--smoke") {
                options.smoke = true;
            } else if (arg == "--results") {
                options.results = value();
            } else if (arg == "--work-dir") {
                options.workDir = value();
            } else {
                usage("unknown option " + arg);
            }
        } catch (const std::logic_error &) {
            usage("invalid value for " + arg);
        }
    }
    if (!(options.seconds > 0.0))
        usage("--seconds must be positive");
    return options;
}

int
runOne(const RunOptions &options)
{
    const tigr::bench::RunResult result = tigr::bench::runWorkload(options);
    for (const auto &[name, m] : *result.metrics.members())
        std::cout << options.workload << " " << name << ": "
                  << m.find("value")->dump(0) << " "
                  << *m.find("unit")->string() << "\n";
    Json line = Json::object();
    line["correct"] = result.correct;
    line["attempted"] = result.attempted;
    line["failed"] = result.failed;
    line["metrics"] = result.metrics;
    std::cout << line.dump(0) << std::endl;
    return result.correct ? 0 : 1;
}

/** Re-exec this binary for @p workload and wait for it. */
int
runChild(const std::string &workload, int argc, char **argv)
{
    std::vector<std::string> args(argv, argv + argc);
    args.push_back("--workload");
    args.push_back(workload);
    std::vector<char *> raw;
    for (std::string &a : args)
        raw.push_back(a.data());
    raw.push_back(nullptr);
    pid_t pid = 0;
    if (::posix_spawn(&pid, "/proc/self/exe", nullptr, nullptr, raw.data(),
                      environ) != 0) {
        std::cerr << "tigr_bench: cannot start the " << workload
                  << " child\n";
        return 1;
    }
    int status = 0;
    if (::waitpid(pid, &status, 0) != pid)
        return 1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    bool seconds_given = false;
    RunOptions options = parse(argc, argv, seconds_given);
    if (options.smoke && !seconds_given)
        options.seconds = 0.3;

    if (!options.workload.empty()) {
        try {
            return runOne(options);
        } catch (const std::exception &e) {
            std::cerr << "tigr_bench: " << options.workload
                      << " failed: " << e.what() << "\n";
            return 1;
        }
    }

    int failures = 0;
    for (const std::string_view workload : tigr::bench::kWorkloads) {
        const int code = runChild(std::string(workload), argc, argv);
        if (code != 0) {
            std::cerr << "tigr_bench: " << workload << " exited " << code
                      << "\n";
            ++failures;
        }
    }
    std::cout << "tigr_bench: "
              << std::size(tigr::bench::kWorkloads) - failures << "/"
              << std::size(tigr::bench::kWorkloads)
              << " workloads passed\n";
    return failures == 0 ? 0 : 1;
}
