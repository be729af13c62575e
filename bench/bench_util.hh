/**
 * @file
 * Shared helpers for the benchmark harnesses that regenerate the
 * paper's tables and figures.
 *
 * Each bench binary prints paper-style rows. Accuracy experiments run
 * trainable stand-ins at a reduced width/sample scale so the full
 * bench suite completes in minutes; set RAPIDNN_FULL=1 to train the
 * exact Table 2 widths (slower). Performance/energy experiments use
 * the paper-scale layer shapes regardless of the environment, so
 * hardware numbers never depend on the accuracy scale.
 */

#ifndef RAPIDNN_BENCH_BENCH_UTIL_HH
#define RAPIDNN_BENCH_BENCH_UTIL_HH

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/simd.hh"
#include "core/rapidnn.hh"
#include "rna/kernels/kernels.hh"

namespace rapidnn::bench {

/** Scale settings derived from the environment. */
struct BenchScale
{
    double widthScale;    //!< hidden-width multiplier on Table 2
    size_t samples;       //!< dataset size (0 = generator default)
    size_t trainEpochs;
    size_t evalCap;       //!< validation samples used for error rates

    static BenchScale
    fromEnv()
    {
        const char *full = std::getenv("RAPIDNN_FULL");
        if (full != nullptr && full[0] == '1')
            return {1.0, 0, 8, 300};
        return {0.25, 700, 6, 175};
    }

    core::BenchmarkOptions
    options(uint64_t seed = 77) const
    {
        core::BenchmarkOptions o;
        o.samples = samples;
        o.trainEpochs = trainEpochs;
        o.widthScale = widthScale;
        o.seed = seed;
        return o;
    }
};

/** Standard bench banner: what is being reproduced and at what scale. */
inline void
banner(const std::string &title, const BenchScale &scale,
       bool usesStandIns = true)
{
    std::cout << "==========================================================\n"
              << title << "\n"
              << "==========================================================\n";
    if (usesStandIns) {
        std::cout << "stand-in scale: widthScale=" << scale.widthScale
                  << " samples=" << (scale.samples ? scale.samples : 0)
                  << " epochs=" << scale.trainEpochs
                  << " (set RAPIDNN_FULL=1 for Table 2 widths)\n";
    }
    std::cout << "\n";
}

/** Cap a validation set for bounded error-rate evaluation. */
inline nn::Dataset
cappedValidation(const nn::Dataset &validation, size_t cap,
                 uint64_t seed = 5)
{
    Rng rng(seed);
    if (cap == 0 || validation.size() <= cap)
        return validation.subset(validation.size(), rng);
    return validation.subset(cap, rng);
}

/** Pretty "123.4x" ratio formatting. */
inline std::string
times(double ratio, int precision = 1)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.*fx", precision, ratio);
    return buf;
}

/**
 * Escape a string for embedding inside a JSON string literal: quotes,
 * backslashes, and control characters (the characters RFC 8259 forbids
 * unescaped). Bench names and env-derived strings pass through here so
 * a stray quote can never produce an invalid BENCH_*.json.
 */
inline std::string
escapeJson(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (char c : raw) {
        switch (c) {
          case '"':  out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\b': out += "\\b"; break;
          case '\f': out += "\\f"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned char>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/**
 * Write a flat machine-readable metric dump as BENCH_<name>.json in the
 * current directory, so CI and scripts can diff bench results without
 * scraping stdout. Non-finite values serialize as null. Every dump
 * records the detected CPU features, the kernel variant an Auto chip
 * would select, and any RAPIDNN_SIMD override in effect — so two
 * BENCH_*.json files are only comparable when their kernel attribution
 * matches.
 */
inline void
writeBenchJson(
    const std::string &name,
    const std::vector<std::pair<std::string, double>> &metrics)
{
    const std::string path = "BENCH_" + name + ".json";
    std::ofstream out(path);
    if (!out) {
        std::cerr << "warning: could not write " << path << "\n";
        return;
    }
    out.precision(12);
    out << "{\n  \"bench\": \"" << escapeJson(name) << "\"";
    out << ",\n  \"simd_variant\": \""
        << escapeJson(simd::variantName(
               rna::kernels::resolve(simd::Variant::Auto)))
        << "\"";
    out << ",\n  \"simd_features\": \""
        << escapeJson(simd::featureString()) << "\"";
    const char *simdEnv = std::getenv("RAPIDNN_SIMD");
    out << ",\n  \"rapidnn_simd_env\": ";
    if (simdEnv != nullptr)
        out << "\"" << escapeJson(simdEnv) << "\"";
    else
        out << "null";
    for (const auto &[key, value] : metrics) {
        out << ",\n  \"" << escapeJson(key) << "\": ";
        if (std::isfinite(value))
            out << value;
        else
            out << "null";
    }
    out << "\n}\n";
    std::cout << "\nwrote " << path << "\n";
}

} // namespace rapidnn::bench

#endif // RAPIDNN_BENCH_BENCH_UTIL_HH
