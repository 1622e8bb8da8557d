/** @file Command-line scanning: both flag spellings and the checked
 * unsigned parse every count and seed flag goes through. */

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/cli.hh"

using namespace alphapim;

namespace
{

/** Scan `tokens` (argv without the program name), reading every
 * `--n` flag into `out` and recording the flags the handler saw. */
template <typename T>
std::vector<std::string>
scan(std::vector<std::string> tokens, T &out)
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
            args.readUnsigned(out);
    }
    return bad;
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
