/**
 * @file
 * Strict JSON validator for the bench_smoke tests. The default
 * (line-oriented) mode requires every non-empty line of the input
 * to parse as one JSON value — the bench --json record convention.
 * With --whole, the entire file must parse as a single JSON value —
 * the stats.json convention. Exits 0 on success, 1 with a
 * file:line diagnostic otherwise.
 *
 * It runs the project's one strict reader (sim/json.hh), so the
 * smoke tests genuinely prove that "--json output parses": a bench
 * emitting NaN, a bare trailing comma, an unescaped quote, a raw
 * control character or a duplicate key fails here.
 */

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "sim/json.hh"

using namespace pciesim;

int
main(int argc, char **argv)
{
    bool whole = false;
    const char *path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--whole")
            whole = true;
        else if (path == nullptr)
            path = argv[i];
        else
            path = ""; // too many positionals
    }
    if (path == nullptr || *path == '\0') {
        std::fprintf(stderr,
                     "usage: json_validate [--whole] <file>\n");
        return 2;
    }
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "json_validate: cannot open %s\n",
                     path);
        return 2;
    }

    if (whole) {
        std::ostringstream ss;
        ss << in.rdbuf();
        std::string text = ss.str();
        json::Value doc;
        if (std::optional<json::Error> err = json::parse(text, doc)) {
            std::fprintf(stderr, "json_validate: %s:%u: %s\n", path,
                         err->line, err->what.c_str());
            return 1;
        }
        std::printf("json_validate: whole-file document ok\n");
        return 0;
    }

    std::string line;
    std::size_t lineno = 0;
    std::size_t objects = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.find_first_not_of(" \t\r") == std::string::npos)
            continue;
        json::Value record;
        if (std::optional<json::Error> err = json::parse(line, record)) {
            std::fprintf(stderr,
                         "json_validate: %s:%zu: %s\n  %s\n",
                         path, lineno, err->what.c_str(),
                         line.c_str());
            return 1;
        }
        ++objects;
    }
    if (objects == 0) {
        std::fprintf(stderr, "json_validate: %s: no JSON records\n",
                     path);
        return 1;
    }
    std::printf("json_validate: %zu records ok\n", objects);
    return 0;
}
