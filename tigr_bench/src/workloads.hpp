/**
 * @file
 * The four tigr_bench workloads. Each drives the service only through
 * its public calls (snapshot load, GraphStore, QueryScheduler,
 * TransformCache, GraphEngine, DynamicGraph, the journal and
 * RecoveryManager), checks every result it times, and writes
 * BENCH_<workload>.json — or, traced, BENCH_<workload>.trace.json and a
 * Chrome trace of the bench-side spans.
 */
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <string_view>

#include "harness.hpp"

namespace tigr::bench {

/** Workload names, in the order `tigr_bench` runs them. */
inline constexpr std::string_view kWorkloads[] = {
    "read_mix", "transform_churn", "mutate_query", "recover"};

/** One workload run's settings. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Wall time of the measured loop. */
    double seconds = 20.0;
    /** Traced run: replay the first quarter of the request stream layer
     *  by layer instead of measuring end to end. */
    bool trace = false;
    /** 2^12 nodes and a tenth of the requests (the ctest smoke). */
    bool smoke = false;
    /** Where BENCH_*.json and TRACE_*.json go. */
    std::filesystem::path results = "tigr_bench/results";
    /** Scratch root for snapshots and durable directories; must not be
     *  tmpfs, or fsync costs nothing and the journal numbers lie. */
    std::filesystem::path workDir = ".bench_build/tmp";
};

/** What the one-line JSON result reports. */
struct RunResult
{
    bool correct = false;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** The BENCHMARK.json metrics: name -> {value, unit}. */
    Json metrics = Json::object();
};

/** Run one workload. @throws std::invalid_argument for an unknown
 *  name. */
RunResult runWorkload(const RunOptions &options);

} // namespace tigr::bench
