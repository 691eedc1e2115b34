/**
 * @file
 * Tests for the one JSON reader/writer (sim/json.hh): every
 * rejection the strict reader makes, with the line it cites; the
 * nesting cap; writer round trips; and a deterministic mutation
 * fuzz over the checked-in JSON files and a stats.json produced
 * here. Every mutant must either parse or fail with a line inside
 * the input, never crash.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "sim/json.hh"
#include "sim/profiler.hh"
#include "sim/rng.hh"
#include "topo/fabric_builder.hh"

using namespace pciesim;

namespace
{

/** The error @p text fails with; line 0 and "<parsed>" if none. */
json::Error
errorOf(const std::string &text)
{
    json::Value doc;
    return json::parse(text, doc).value_or(json::Error{0, "<parsed>"});
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

unsigned
lineCount(const std::string &text)
{
    return 1 + static_cast<unsigned>(
                   std::count(text.begin(), text.end(), '\n'));
}

} // namespace

TEST(JsonReader, ParsesEveryKindWithLines)
{
    json::Value doc;
    ASSERT_FALSE(json::parse("{\n \"b\": [true, false, null],\n"
                             " \"a\": -1.5e2,\n \"s\": \"x\\ty\"\n}",
                             doc));
    ASSERT_EQ(doc.type, json::Value::Type::Object);
    ASSERT_EQ(doc.obj.size(), 3u);
    // Objects keep insertion order.
    EXPECT_EQ(doc.obj[0].first, "b");
    EXPECT_EQ(doc.obj[1].first, "a");
    const json::Value *b = doc.find("b");
    ASSERT_NE(b, nullptr);
    EXPECT_EQ(b->line, 2u);
    ASSERT_EQ(b->arr.size(), 3u);
    EXPECT_TRUE(b->arr[0].boolean);
    EXPECT_STREQ(b->arr[1].typeName(), "bool");
    EXPECT_STREQ(b->arr[2].typeName(), "null");
    EXPECT_EQ(doc.numberOr("a", 0.0), -150.0);
    EXPECT_EQ(doc.find("a")->line, 3u);
    EXPECT_EQ(doc.stringOr("s", ""), "x\ty");
    EXPECT_EQ(doc.stringOr("a", "fallback"), "fallback");
    EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonReader, UnicodeEscapesDecodeAsciiAndFoldTheRest)
{
    json::Value doc;
    ASSERT_FALSE(json::parse("\"\\u0041\\u00e9\\u002F\\uD83D\"", doc));
    EXPECT_EQ(doc.str, "A?/?");
}

TEST(JsonReader, RejectsMalformedInputCitingItsLine)
{
    struct Case
    {
        const char *text;
        unsigned line;
        const char *what;
    };
    const Case cases[] = {
        {"", 1, "unexpected end of input"},
        {"[1,\n", 2, "unexpected end of input"},
        {"[1,\n2,\n]", 3, "unexpected character"},
        {"{\"a\": 1,\n}", 2, "expected object key"},
        {"{\n\"a\": \"abc", 2, "unterminated string"},
        {"[\"abc\ndef\"]", 1, "unterminated string"},
        {"\"abc\\", 1, "unterminated string"},
        {"[\ntrue,\nnope]", 3, "unexpected character"},
        {"NaN", 1, "unexpected character"},
        {"\v1", 1, "unexpected character"},
        {"{\"a\":\n\"x\ty\"}", 2, "raw control character in string"},
        {"\"\\u12g4\"", 1, "bad \\u escape"},
        {"\"\\x\"", 1, "bad string escape"},
        {"[1.]", 1, "bad number fraction"},
        {"[1e+]", 1, "bad number exponent"},
        {"-", 1, "bad number"},
        {"[\n01]", 2, "leading zero"},
        {"[1e999]", 1, "number out of range"},
        {"{}\n\nxyz", 3, "trailing characters"},
        {"{\"k\": 1,\n \"k\":\n 2}", 2, "duplicate key 'k'"},
        {"{\"a\" 1}", 1, "expected ':' after object key"},
        {"{\"a\": 1 \"b\": 2}", 1, "expected ',' or '}' in object"},
        {"[1 2]", 1, "expected ',' or ']' in array"},
    };
    for (const Case &c : cases) {
        json::Error err = errorOf(c.text);
        EXPECT_EQ(err.line, c.line) << c.text;
        EXPECT_NE(err.what.find(c.what), std::string::npos)
            << c.text << " -> " << err.what;
    }
}

TEST(JsonReader, NestingIsCappedNotACrash)
{
    auto nested = [](unsigned depth) {
        return std::string(depth, '[') + std::string(depth, ']');
    };
    json::Value doc;
    EXPECT_FALSE(json::parse(nested(json::maxDepth), doc));

    json::Error err = errorOf("{\"a\":\n" + nested(json::maxDepth));
    EXPECT_EQ(err.line, 2u);
    EXPECT_EQ(err.what, "nesting too deep");

    err = errorOf(nested(2000000));
    EXPECT_EQ(err.line, 1u);
    EXPECT_EQ(err.what, "nesting too deep");
}

TEST(JsonWriter, StringRoundTripsEveryAsciiByte)
{
    std::string all;
    for (int b = 0x01; b <= 0x7f; ++b) {
        std::string s(1, static_cast<char>(b));
        all += s;
        json::Value doc;
        std::string quoted = json::writeString(s);
        ASSERT_FALSE(json::parse(quoted, doc)) << b;
        EXPECT_EQ(doc.str, s) << b;
        // One record per line: no raw line break survives.
        EXPECT_EQ(quoted.find('\n'), std::string::npos) << b;
    }
    json::Value doc;
    ASSERT_FALSE(json::parse(json::writeString(all), doc));
    EXPECT_EQ(doc.str, all);
}

TEST(JsonWriter, NumbersAreFiniteWithTwelveDigits)
{
    EXPECT_EQ(json::writeNumber(0.1), "0.1");
    EXPECT_EQ(json::writeNumber(1.0 / 3.0), "0.333333333333");
    EXPECT_EQ(json::writeNumber(-2.5e20), "-2.5e+20");
    EXPECT_EQ(json::writeNumber(std::nan("")), "0");
    EXPECT_EQ(
        json::writeNumber(std::numeric_limits<double>::infinity()),
        "0");
    json::Value doc;
    ASSERT_FALSE(json::parse(json::writeNumber(6.02214076e23), doc));
    EXPECT_EQ(doc.number, 6.02214076e23);
}

/**
 * Seeded bit flips, truncations and splices of every checked-in
 * topology, one profiled BENCH_fabric.json record and a profiled
 * stats.json. A failure names the seed that reproduces it.
 */
TEST(JsonFuzz, MutantsParseOrCiteALineInsideTheInput)
{
    struct Sample
    {
        std::string name;
        std::string text;
    };
    std::vector<Sample> corpus;
    const std::string root = PCIESIM_SOURCE_DIR;
    for (const char *dir :
         {"/examples/topologies", "/perfbench/topologies"}) {
        std::vector<std::string> paths;
        for (const auto &entry :
             std::filesystem::directory_iterator(root + dir)) {
            if (entry.path().extension() == ".json")
                paths.push_back(entry.path().string());
        }
        std::sort(paths.begin(), paths.end());
        for (const std::string &p : paths)
            corpus.push_back({p, slurp(p)});
    }
    std::istringstream bench(slurp(root + "/BENCH_fabric.json"));
    std::string line, last;
    while (std::getline(bench, line)) {
        if (!line.empty())
            last = line;
    }
    corpus.push_back({"BENCH_fabric.json record", last});
    {
        prof::reset();
        prof::setEnabled(true);
        prof::setReportTimes(false);
        Simulation sim;
        Fabric system(sim,
                      loadFabricDesc(PCIESIM_TOPOLOGY_DIR "/storage.json"));
        DdWorkloadParams dd;
        dd.blockBytes = 64 * 1024;
        system.runDd(dd);
        std::ostringstream os;
        sim.statsRegistry().dumpJson(os, sim.curTick());
        corpus.push_back({"stats.json", os.str()});
        prof::setEnabled(false);
        prof::setReportTimes(true);
        prof::reset();
    }
    ASSERT_GE(corpus.size(), 9u);
    for (const Sample &s : corpus) {
        json::Value doc;
        std::optional<json::Error> err = json::parse(s.text, doc);
        ASSERT_FALSE(err) << s.name << ":" << err->line << ": "
                          << err->what;
    }
    if (prof::compiledIn) {
        EXPECT_NE(corpus.back().text.find("\"profiler\""),
                  std::string::npos);
    }

    unsigned parsed = 0, rejected = 0;
    for (std::uint64_t seed = 1; seed <= 10000; ++seed) {
        Rng rng(seed);
        auto pick = [&rng](std::size_t n) {
            return static_cast<std::size_t>(rng.next() % (n + 1));
        };
        const Sample &base = corpus[pick(corpus.size() - 1)];
        const Sample &donor = corpus[pick(corpus.size() - 1)];
        std::string text = base.text;
        switch (rng.next() % 3) {
          case 0:
            for (std::size_t i = 0, n = 1 + pick(3); i < n; ++i) {
                text[pick(text.size() - 1)] ^=
                    static_cast<char>(1u << pick(7));
            }
            break;
          case 1:
            text.resize(pick(text.size()));
            break;
          default: {
            std::size_t at = pick(text.size());
            std::size_t cut = pick(text.size() - at);
            std::size_t from = pick(donor.text.size());
            std::size_t len = pick(donor.text.size() - from);
            text.replace(at, cut, donor.text, from, len);
          }
        }
        json::Value doc;
        std::optional<json::Error> err = json::parse(text, doc);
        if (!err) {
            ++parsed;
            continue;
        }
        ++rejected;
        ASSERT_GE(err->line, 1u) << "seed " << seed;
        ASSERT_LE(err->line, lineCount(text))
            << "seed " << seed << " " << base.name << ": "
            << err->what;
    }
    // Both outcomes must be exercised for the loop to mean much.
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(rejected, 0u);
}
