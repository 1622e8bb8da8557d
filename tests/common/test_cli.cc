/** @file Command-line scanning: both flag spellings and the checked
 * unsigned and floating-point parses every numeric flag goes
 * through, with the range its consumer accepts. */

#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/cli.hh"

using namespace alphapim;

namespace
{

/** Scan `tokens` (argv without the program name), handing every
 * `--n` flag to `read` and recording the flags the handler saw. */
template <typename Read>
std::vector<std::string>
scanWith(std::vector<std::string> tokens, Read read)
{
    tokens.insert(tokens.begin(), "prog");
    std::vector<char *> argv;
    for (std::string &t : tokens)
        argv.push_back(t.data());
    std::vector<std::string> bad;
    CliArgs args(static_cast<int>(argv.size()), argv.data(),
                 [&](const std::string &flag) { bad.push_back(flag); });
    while (args.next()) {
        if (args.arg() == "--n")
            read(args);
    }
    return bad;
}

/** scanWith() reading `--n` into `out` with readUnsigned(). */
template <typename T>
std::vector<std::string>
scan(std::vector<std::string> tokens, T &out)
{
    return scanWith(std::move(tokens),
                    [&](CliArgs &args) { args.readUnsigned(out); });
}

bool
parses(const char *text, std::uint64_t max, std::uint64_t expect)
{
    std::uint64_t v = 12345;
    return CliArgs::parseUnsigned(text, max, v) && v == expect;
}

bool
rejects(const char *text, std::uint64_t max)
{
    std::uint64_t v = 12345;
    return !CliArgs::parseUnsigned(text, max, v) && v == 12345;
}

bool
parsesDouble(const char *text, double expect)
{
    double v = 12345.0;
    return CliArgs::parseDouble(text, v) && v == expect;
}

bool
rejectsDouble(const char *text)
{
    double v = 12345.0;
    return !CliArgs::parseDouble(text, v) && v == 12345.0;
}

constexpr std::uint64_t u64Max = std::numeric_limits<std::uint64_t>::max();
constexpr std::uint64_t u32Max = std::numeric_limits<std::uint32_t>::max();

} // namespace

TEST(CliParseUnsigned, AcceptsDigitsWithinTheBound)
{
    EXPECT_TRUE(parses("0", u32Max, 0));
    EXPECT_TRUE(parses("64", u32Max, 64));
    EXPECT_TRUE(parses("007", u32Max, 7));
    EXPECT_TRUE(parses("4294967295", u32Max, u32Max));
    EXPECT_TRUE(parses("18446744073709551615", u64Max, u64Max));
}

TEST(CliParseUnsigned, RejectsSignsSpacesSuffixesAndEmpty)
{
    for (const char *text : {"-1", "+5", " 5", "5 ", "64x", "12abc",
                             "0x10", "1e3", "2.5", "", "abc"})
        EXPECT_TRUE(rejects(text, u64Max)) << "'" << text << "'";
}

TEST(CliParseUnsigned, RejectsNumbersThatDoNotFit)
{
    EXPECT_TRUE(rejects("4294967296", u32Max));
    EXPECT_TRUE(rejects("18446744073709551616", u64Max));
    EXPECT_TRUE(rejects("99999999999999999999999", u64Max));
    EXPECT_TRUE(rejects("256", 255));
}

TEST(CliArgs, ReadUnsignedTakesBothSpellings)
{
    unsigned n = 0;
    EXPECT_TRUE(scan({"--n", "64"}, n).empty());
    EXPECT_EQ(n, 64u);
    EXPECT_TRUE(scan({"--n=128"}, n).empty());
    EXPECT_EQ(n, 128u);
}

TEST(CliArgs, ReadUnsignedSendsBadValuesToTheHandler)
{
    for (const char *bad : {"-1", "64x", "4294967296"}) {
        unsigned n = 7;
        EXPECT_EQ(scan({"--n", bad}, n),
                  std::vector<std::string>{"--n"})
            << bad;
        EXPECT_EQ(n, 7u) << bad;
        EXPECT_EQ(scan({std::string("--n=") + bad}, n),
                  std::vector<std::string>{"--n"})
            << bad;
        EXPECT_EQ(n, 7u) << bad;
    }
    unsigned n = 7;
    EXPECT_FALSE(scan({"--n"}, n).empty());
    EXPECT_EQ(n, 7u);
}

TEST(CliArgs, ReadUnsignedBoundIsTheTargetType)
{
    std::uint64_t wide = 0;
    EXPECT_TRUE(scan({"--n", "4294967296"}, wide).empty());
    EXPECT_EQ(wide, 4294967296ull);

    std::uint8_t narrow = 3;
    EXPECT_TRUE(scan({"--n", "255"}, narrow).empty());
    EXPECT_EQ(narrow, 255u);
    EXPECT_FALSE(scan({"--n", "256"}, narrow).empty());
    EXPECT_EQ(narrow, 255u);
}

TEST(CliArgs, ReadUnsignedRangeIsInclusive)
{
    unsigned n = 7;
    const auto read = [&](CliArgs &args) { args.readUnsigned(n, 1, 24); };
    EXPECT_TRUE(scanWith({"--n", "1"}, read).empty());
    EXPECT_EQ(n, 1u);
    EXPECT_TRUE(scanWith({"--n=24"}, read).empty());
    EXPECT_EQ(n, 24u);
    for (const char *bad : {"0", "25", "64", "-1"}) {
        n = 7;
        EXPECT_EQ(scanWith({"--n", bad}, read),
                  std::vector<std::string>{"--n"})
            << bad;
        EXPECT_EQ(n, 7u) << bad;
    }

    // A minimum alone keeps the target type's bound as the maximum.
    std::uint8_t narrow = 3;
    const auto read_min = [&](CliArgs &args) {
        args.readUnsigned(narrow, 2);
    };
    EXPECT_TRUE(scanWith({"--n", "255"}, read_min).empty());
    EXPECT_EQ(narrow, 255u);
    EXPECT_FALSE(scanWith({"--n", "1"}, read_min).empty());
    EXPECT_FALSE(scanWith({"--n", "256"}, read_min).empty());
    EXPECT_EQ(narrow, 255u);
}

TEST(CliParseDouble, AcceptsFiniteNumbers)
{
    EXPECT_TRUE(parsesDouble("0", 0.0));
    EXPECT_TRUE(parsesDouble("0.05", 0.05));
    EXPECT_TRUE(parsesDouble("1", 1.0));
    EXPECT_TRUE(parsesDouble("-2.5", -2.5));
    EXPECT_TRUE(parsesDouble("1e-3", 1e-3));
    EXPECT_TRUE(parsesDouble(".5", 0.5));
}

TEST(CliParseDouble, RejectsMalformedAndNonFiniteTokens)
{
    for (const char *text : {"abc", "", "7x", "0.5 ", " 0.5", "+1",
                             "1,5", "0x10", "inf", "-inf", "nan",
                             "1e999"})
        EXPECT_TRUE(rejectsDouble(text)) << "'" << text << "'";
}

TEST(CliArgs, ReadDoubleChecksTheRangeInBothSpellings)
{
    double x = 0.25;
    const auto read = [&](CliArgs &args) {
        args.readDouble(x, [](double v) { return v > 0.0 && v <= 1.0; });
    };
    EXPECT_TRUE(scanWith({"--n", "0.5"}, read).empty());
    EXPECT_EQ(x, 0.5);
    EXPECT_TRUE(scanWith({"--n=1"}, read).empty());
    EXPECT_EQ(x, 1.0);
    for (const char *bad : {"0", "1.5", "-0.1", "abc", "nan"}) {
        x = 0.25;
        EXPECT_EQ(scanWith({"--n", bad}, read),
                  std::vector<std::string>{"--n"})
            << bad;
        EXPECT_EQ(scanWith({std::string("--n=") + bad}, read),
                  std::vector<std::string>{"--n"})
            << bad;
        EXPECT_EQ(x, 0.25) << bad;
    }
}
