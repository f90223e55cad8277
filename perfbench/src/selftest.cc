/**
 * @file
 * Self-tests of the benchmark's answer checks: each check must accept
 * the right answer and reject a wrong one that differs minimally (one
 * column, one profile entry, one count). Run with
 * `python3 perfbench/run.py --selftest`.
 */

#include <cstdio>

#include "beer/patterns.hh"
#include "common.hh"
#include "ecc/hamming.hh"
#include "gf2/matrix.hh"
#include "util/rng.hh"

using namespace beer;

namespace perfbench
{

namespace
{

int failures = 0;

void
expect(bool ok, const char *what)
{
    std::fprintf(stderr, "perfbench selftest: %s %s\n", ok ? "ok  " : "FAIL",
                 what);
    if (!ok)
        ++failures;
}

/** @p code with data column @p col replaced by another valid column
 *  (weight >= 2, not already a column of P). */
ecc::LinearCode
withOneColumnChanged(const ecc::LinearCode &code, std::size_t col)
{
    const gf2::Matrix &p = code.pMatrix();
    const std::size_t rows = p.rows();
    for (std::uint64_t v = 3; v < (1ULL << rows); ++v) {
        if (__builtin_popcountll(v) < 2)
            continue;
        bool taken = false;
        for (std::size_t c = 0; c < p.cols() && !taken; ++c) {
            std::uint64_t existing = 0;
            for (std::size_t r = 0; r < rows; ++r)
                existing |= (std::uint64_t)p.get(r, c) << r;
            taken = existing == v;
        }
        if (taken)
            continue;
        gf2::Matrix changed = p;
        for (std::size_t r = 0; r < rows; ++r)
            changed.set(r, col, (v >> r) & 1);
        return ecc::LinearCode(std::move(changed));
    }
    return code;
}

/** @p code with its parity rows in reverse order (an equivalent code). */
ecc::LinearCode
withRowsReversed(const ecc::LinearCode &code)
{
    const gf2::Matrix &p = code.pMatrix();
    gf2::Matrix reversed(p.rows(), p.cols());
    for (std::size_t r = 0; r < p.rows(); ++r)
        for (std::size_t c = 0; c < p.cols(); ++c)
            reversed.set(p.rows() - 1 - r, c, p.get(r, c));
    return ecc::LinearCode(std::move(reversed));
}

} // anonymous namespace

int
runSelfTests()
{
    util::Rng rng(7);
    const ecc::LinearCode code = ecc::randomSecCode(32, rng);

    // Equivalence check.
    expect(sameFunction(code, code), "equivalence accepts the same code");
    expect(sameFunction(withRowsReversed(code), code),
           "equivalence accepts a parity-row relabeling");
    const ecc::LinearCode changed = withOneColumnChanged(code, 5);
    expect(!(changed == code), "the mutated code differs in one column");
    expect(!sameFunction(changed, code),
           "equivalence rejects a code that differs in one column");

    // Profile re-derivation check.
    const auto patterns = chargedPatterns(code.k(), 1);
    const MiscorrectionProfile profile = exhaustiveProfile(code, patterns);
    expect(reproducesProfile(code, profile),
           "re-derivation accepts the generating code's profile");
    MiscorrectionProfile flipped = profile;
    PatternProfile &entry = flipped.patterns[3];
    const std::size_t bit = patternContains(entry.pattern, 0) ? 1 : 0;
    entry.miscorrectable.set(bit, !entry.miscorrectable.get(bit));
    expect(!reproducesProfile(code, flipped),
           "re-derivation rejects a profile with one entry flipped");

    // Service tally check.
    const ServeTally expected{64, 8, 36};
    expect(tallyMismatch(expected, expected).empty(),
           "tally accepts equal counts");
    ServeTally off = expected;
    ++off.satSolves;
    expect(!tallyMismatch(off, expected).empty(),
           "tally rejects a SAT-solve count off by one");
    off = expected;
    --off.exactHits;
    expect(!tallyMismatch(off, expected).empty(),
           "tally rejects an exact-hit count off by one");

    // The job-result code parser round-trips the service's format.
    const auto parsed = parseCodeRows(code.toString(), code.k());
    expect(parsed && *parsed == code, "code rows parse back to the code");
    expect(!parseCodeRows("1 0 2\n", 1), "code rows reject junk");

    std::fprintf(stderr, "perfbench selftest: %s\n",
                 failures ? "FAILED" : "all checks behave");
    return failures ? 1 : 0;
}

} // namespace perfbench
