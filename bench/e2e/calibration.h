// Calibration constants, measured once and committed so that both sides of
// a comparison run identical jobs (batch counts are fixed, not timed).
//
// Batch counts give about kDefaultSeconds of measured run_farm time per
// workload on kHost; --seconds scales them proportionally. CF-Bench
// iterations give each category a run phase of about 5 ms on the default
// (threaded) tier. The checksums are the known answers for those iteration
// counts, computed with EngineTier::kInterp — the paper-faithful oracle,
// not the tier under test; `e2e_bench --print-oracle` regenerates them.
#pragma once

#include "common/types.h"

namespace e2e::calibration {

inline constexpr const char* kHost =
    "4-CPU x86-64 container (nproc 4), load average 0.2-1.0";
inline constexpr ndroid::u64 kDefaultSeed = 20140623;
inline constexpr ndroid::u32 kDefaultSeconds = 20;

// Measured and traced batches per workload at kDefaultSeconds.
inline constexpr ndroid::u32 kMixSerialBatches = 450;
inline constexpr ndroid::u32 kMixSerialTracedBatches = 180;
inline constexpr ndroid::u32 kMixThreadsBatches = 1100;
inline constexpr ndroid::u32 kMixThreadsTracedBatches = 440;
inline constexpr ndroid::u32 kCfbenchLongBatches = 260;
inline constexpr ndroid::u32 kCfbenchLongTracedBatches = 105;
inline constexpr ndroid::u32 kMonkeyTaintBatches = 200;
inline constexpr ndroid::u32 kMonkeyTaintTracedBatches = 80;

/// A batch draws each category's iteration count from kCfVariants evenly
/// spaced variants: iterations + v * (iterations / 16), v in [0, 4).
inline constexpr ndroid::u32 kCfVariants = 4;

struct CfCategory {
  const char* name;
  ndroid::u32 iterations;
};

// In farm::cfbench_jobs order.
inline constexpr CfCategory kCfCategories[] = {
    {"Native MIPS", 194000},
    {"Java MIPS", 88000},
    {"Native MSFLOPS", 66000},
    {"Java MSFLOPS", 135000},
    {"Native MDFLOPS", 229000},
    {"Java MDFLOPS", 135000},
    {"Native MALLOCS", 29000},
    {"Native Memory Read", 70000},
    {"Native Memory Write", 8700},
    {"Java Memory Read", 2450},
    {"Java Memory Write", 2500},
    {"Native Disk Read", 28000},
    {"Native Disk Write", 15000},
};

/// CF-Bench iterations of the default_mix jobs in the mix workloads.
inline constexpr ndroid::u32 kMixCfIterations = 10;

/// Monkey sessions at least this long must find their app's leak (the mix
/// workloads' 8-event sessions are too short to be sure of it).
inline constexpr ndroid::u32 kMonkeyMustLeakEvents = 200;

struct CfAnswer {
  const char* name;
  ndroid::u32 iterations;
  ndroid::u32 checksum;
};

// Every (category, iterations) pair the workloads run.
inline constexpr CfAnswer kCfOracle[] = {
    {"Native MIPS", 10, 2687533732u},
    {"Native MIPS", 194000, 1818417978u},
    {"Native MIPS", 206125, 3535598602u},
    {"Native MIPS", 218250, 3952833752u},
    {"Native MIPS", 230375, 465100178u},
    {"Java MIPS", 10, 419892940u},
    {"Java MIPS", 88000, 4147850956u},
    {"Java MIPS", 93500, 4147850956u},
    {"Java MIPS", 99000, 4147850956u},
    {"Java MIPS", 104500, 4147850956u},
    {"Native MSFLOPS", 10, 1065362605u},
    {"Native MSFLOPS", 66000, 1065353222u},
    {"Native MSFLOPS", 70125, 1065353222u},
    {"Native MSFLOPS", 74250, 1065353222u},
    {"Native MSFLOPS", 78375, 1065353222u},
    {"Java MSFLOPS", 10, 1094189055u},
    {"Java MSFLOPS", 135000, 1208225023u},
    {"Java MSFLOPS", 143437, 1208766449u},
    {"Java MSFLOPS", 151874, 1209307875u},
    {"Java MSFLOPS", 160311, 1209849301u},
    {"Native MDFLOPS", 10, 3604566u},
    {"Native MDFLOPS", 229000, 2147450877u},
    {"Native MDFLOPS", 243312, 2147450877u},
    {"Native MDFLOPS", 257624, 2147450877u},
    {"Native MDFLOPS", 271936, 2147450877u},
    {"Java MDFLOPS", 10, 1094189055u},
    {"Java MDFLOPS", 135000, 1208225023u},
    {"Java MDFLOPS", 143437, 1208766449u},
    {"Java MDFLOPS", 151874, 1209307875u},
    {"Java MDFLOPS", 160311, 1209849301u},
    {"Native MALLOCS", 10, 0u},
    {"Native MALLOCS", 29000, 0u},
    {"Native MALLOCS", 30812, 0u},
    {"Native MALLOCS", 32624, 0u},
    {"Native MALLOCS", 34436, 0u},
    {"Native Memory Read", 10, 0u},
    {"Native Memory Read", 70000, 0u},
    {"Native Memory Read", 74375, 0u},
    {"Native Memory Read", 78750, 0u},
    {"Native Memory Read", 83125, 0u},
    {"Native Memory Write", 10, 0u},
    {"Native Memory Write", 8700, 0u},
    {"Native Memory Write", 9243, 0u},
    {"Native Memory Write", 9786, 0u},
    {"Native Memory Write", 10329, 0u},
    {"Java Memory Read", 10, 0u},
    {"Java Memory Read", 2450, 0u},
    {"Java Memory Read", 2603, 0u},
    {"Java Memory Read", 2756, 0u},
    {"Java Memory Read", 2909, 0u},
    {"Java Memory Write", 10, 7u},
    {"Java Memory Write", 2500, 7u},
    {"Java Memory Write", 2656, 7u},
    {"Java Memory Write", 2812, 7u},
    {"Java Memory Write", 2968, 7u},
    {"Native Disk Read", 10, 0u},
    {"Native Disk Read", 28000, 0u},
    {"Native Disk Read", 29750, 0u},
    {"Native Disk Read", 31500, 0u},
    {"Native Disk Read", 33250, 0u},
    {"Native Disk Write", 10, 0u},
    {"Native Disk Write", 15000, 0u},
    {"Native Disk Write", 15937, 0u},
    {"Native Disk Write", 16874, 0u},
    {"Native Disk Write", 17811, 0u},
};

}  // namespace e2e::calibration
