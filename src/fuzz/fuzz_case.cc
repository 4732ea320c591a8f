#include "fuzz/fuzz_case.hh"

#include <fstream>
#include <sstream>
#include <vector>

namespace pabp::fuzz {

namespace {

const Oracle oracleList[] = {Oracle::IfConvert, Oracle::Pipeline,
                             Oracle::Replay, Oracle::Split,
                             Oracle::Trace, Oracle::Sweep,
                             Oracle::Journal, Oracle::MultiCtx};

Expected<std::uint64_t>
parseU64(const std::string &key, const std::string &text)
{
    if (text.empty())
        return statusError(StatusCode::ParseError,
                           "fuzz case: empty value for " + key);
    std::uint64_t out = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return statusError(StatusCode::ParseError,
                               "fuzz case: bad number for " + key +
                                   ": '" + text + "'");
        std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
        if (out > (~0ull - digit) / 10)
            return statusError(StatusCode::ParseError,
                               "fuzz case: overflow in " + key);
        out = out * 10 + digit;
    }
    return out;
}

Expected<bool>
parseBool(const std::string &key, const std::string &text)
{
    if (text == "0" || text == "false")
        return false;
    if (text == "1" || text == "true")
        return true;
    return statusError(StatusCode::ParseError,
                       "fuzz case: bad bool for " + key + ": '" +
                           text + "'");
}

std::vector<std::string>
splitList(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::string item;
    std::istringstream in(text);
    while (std::getline(in, item, sep))
        out.push_back(item);
    return out;
}

} // anonymous namespace

const char *
oracleName(Oracle oracle)
{
    switch (oracle) {
      case Oracle::IfConvert: return "ifconvert";
      case Oracle::Pipeline: return "pipeline";
      case Oracle::Replay: return "replay";
      case Oracle::Split: return "split";
      case Oracle::Trace: return "trace";
      case Oracle::Sweep: return "sweep";
      case Oracle::Journal: return "journal";
      case Oracle::MultiCtx: return "multictx";
    }
    return "unknown";
}

Expected<unsigned>
parseOracleMask(const std::string &text)
{
    if (text == "all")
        return allOracles;
    unsigned mask = 0;
    for (const std::string &token : splitList(text, ',')) {
        bool found = false;
        for (Oracle o : oracleList) {
            if (token == oracleName(o)) {
                mask |= static_cast<unsigned>(o);
                found = true;
                break;
            }
        }
        if (!found)
            return statusError(StatusCode::ParseError,
                               "fuzz case: unknown oracle '" + token +
                                   "'");
    }
    if (mask == 0)
        return statusError(StatusCode::ParseError,
                           "fuzz case: empty oracle list");
    return mask;
}

std::string
formatOracleMask(unsigned mask)
{
    if ((mask & allOracles) == allOracles)
        return "all";
    std::string out;
    for (Oracle o : oracleList) {
        if (!(mask & static_cast<unsigned>(o)))
            continue;
        if (!out.empty())
            out += ',';
        out += oracleName(o);
    }
    return out;
}

std::string
engineSpecString(const EngineConfig &cfg)
{
    std::string out;
    auto add = [&out](const char *token) {
        if (!out.empty())
            out += '+';
        out += token;
    };
    if (cfg.useSfpf)
        add("sfpf");
    if (cfg.usePgu)
        add("pgu");
    if (cfg.useSpeculativeSquash)
        add(cfg.specGate == EngineConfig::SpecGate::Jrs ? "jrs"
                                                        : "spec");
    if (cfg.trainOnSquashed)
        add("train");
    if (cfg.conservativeDefTracking)
        add("consdef");
    return out.empty() ? "base" : out;
}

Expected<EngineConfig>
parseEngineSpec(const std::string &spec)
{
    EngineConfig cfg;
    if (spec == "base")
        return cfg;
    for (const std::string &token : splitList(spec, '+')) {
        if (token == "sfpf") {
            cfg.useSfpf = true;
        } else if (token == "pgu") {
            cfg.usePgu = true;
        } else if (token == "spec") {
            cfg.useSpeculativeSquash = true;
        } else if (token == "jrs") {
            cfg.useSpeculativeSquash = true;
            cfg.specGate = EngineConfig::SpecGate::Jrs;
        } else if (token == "train") {
            cfg.trainOnSquashed = true;
        } else if (token == "consdef") {
            cfg.conservativeDefTracking = true;
        } else {
            return statusError(StatusCode::ParseError,
                               "fuzz case: unknown engine token '" +
                                   token + "'");
        }
    }
    return cfg;
}

Expected<FuzzCase>
parseCase(const std::string &text)
{
    FuzzCase out;
    bool sawFormat = false;
    std::istringstream in(text);
    std::string line;
    unsigned lineNo = 0;
    while (std::getline(in, line)) {
        ++lineNo;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        std::size_t start = line.find_first_not_of(" \t");
        if (start == std::string::npos || line[start] == '#')
            continue;
        std::size_t eq = line.find('=', start);
        if (eq == std::string::npos)
            return statusError(StatusCode::ParseError,
                               "fuzz case line " +
                                   std::to_string(lineNo) +
                                   ": expected key=value");
        std::string key = line.substr(start, eq - start);
        std::string value = line.substr(eq + 1);

        auto num = [&](auto apply) -> Status {
            Expected<std::uint64_t> v = parseU64(key, value);
            if (!v.ok())
                return v.status();
            apply(v.value());
            return {};
        };
        auto flag = [&](auto apply) -> Status {
            Expected<bool> v = parseBool(key, value);
            if (!v.ok())
                return v.status();
            apply(v.value());
            return {};
        };

        if (key == "format") {
            if (value != "pabp-fuzz-case-v1")
                return statusError(StatusCode::VersionMismatch,
                                   "fuzz case: unsupported format '" +
                                       value + "'");
            sawFormat = true;
        } else if (key == "name") {
            out.name = value;
        } else if (key == "seed") {
            PABP_TRY(num([&](std::uint64_t v) { out.seed = v; }));
        } else if (key == "predictor") {
            out.predictor = value;
        } else if (key == "size_log2") {
            PABP_TRY(num([&](std::uint64_t v) {
                out.sizeLog2 = static_cast<unsigned>(v);
            }));
        } else if (key == "engine") {
            Expected<EngineConfig> cfg = parseEngineSpec(value);
            if (!cfg.ok())
                return cfg.status();
            unsigned delay = out.engine.availDelay;
            out.engine = cfg.value();
            out.engine.availDelay = delay;
        } else if (key == "avail_delay") {
            PABP_TRY(num([&](std::uint64_t v) {
                out.engine.availDelay = static_cast<unsigned>(v);
            }));
        } else if (key == "oracles") {
            Expected<unsigned> mask = parseOracleMask(value);
            if (!mask.ok())
                return mask.status();
            out.oracles = mask.value();
        } else if (key == "max_insts") {
            PABP_TRY(num([&](std::uint64_t v) { out.maxInsts = v; }));
        } else if (key == "items") {
            PABP_TRY(num([&](std::uint64_t v) {
                out.gen.items = static_cast<unsigned>(v);
            }));
        } else if (key == "repeats") {
            PABP_TRY(num([&](std::uint64_t v) {
                out.gen.repeats = static_cast<std::int64_t>(v);
            }));
        } else if (key == "branch_density") {
            PABP_TRY(num([&](std::uint64_t v) {
                out.gen.branchDensity = static_cast<unsigned>(v);
            }));
        } else if (key == "pred_nest") {
            PABP_TRY(num([&](std::uint64_t v) {
                out.gen.predNestDepth = static_cast<unsigned>(v);
            }));
        } else if (key == "loop_depth") {
            PABP_TRY(num([&](std::uint64_t v) {
                out.gen.loopDepth = static_cast<unsigned>(v);
            }));
        } else if (key == "call_depth") {
            PABP_TRY(num([&](std::uint64_t v) {
                out.gen.callDepth = static_cast<unsigned>(v);
            }));
        } else if (key == "hb_pressure") {
            PABP_TRY(num([&](std::uint64_t v) {
                out.gen.hbPressure = static_cast<unsigned>(v);
            }));
        } else if (key == "div_edges") {
            PABP_TRY(num([&](std::uint64_t v) {
                out.gen.divEdgePercent = static_cast<unsigned>(v);
            }));
        } else if (key == "data_branches") {
            PABP_TRY(num([&](std::uint64_t v) {
                out.gen.dataBranchPercent = static_cast<unsigned>(v);
            }));
        } else if (key == "empty_ras") {
            PABP_TRY(flag([&](bool v) { out.gen.emptyRas = v; }));
        } else if (key == "data_window") {
            PABP_TRY(num([&](std::uint64_t v) {
                out.gen.dataWindow = static_cast<std::int64_t>(v);
            }));
        } else if (key == "corrupt_flips") {
            PABP_TRY(num([&](std::uint64_t v) {
                out.corruptFlips = static_cast<unsigned>(v);
            }));
        } else if (key == "corrupt_seed") {
            PABP_TRY(num([&](std::uint64_t v) { out.corruptSeed = v; }));
        } else if (key == "corrupt_truncate") {
            PABP_TRY(num([&](std::uint64_t v) {
                out.corruptTruncate = static_cast<unsigned>(v);
            }));
        } else if (key == "contexts") {
            PABP_TRY(num([&](std::uint64_t v) {
                out.contexts =
                    static_cast<unsigned>(v ? v : 1);
            }));
        } else if (key == "ctx_schedule") {
            Expected<ScheduleKind> kind = parseScheduleKind(value);
            if (!kind.ok())
                return kind.status();
            out.ctxSchedule = kind.value();
        } else if (key == "ctx_quantum") {
            PABP_TRY(num([&](std::uint64_t v) {
                out.ctxQuantum = v ? v : 1;
            }));
        } else if (key == "ctx_seed") {
            PABP_TRY(num([&](std::uint64_t v) { out.ctxSeed = v; }));
        } else if (key == "ctx_shared") {
            PABP_TRY(flag([&](bool v) { out.ctxShared = v; }));
        } else if (key == "ctx_tag_bits") {
            PABP_TRY(num([&](std::uint64_t v) {
                out.ctxTagBits = static_cast<unsigned>(v);
            }));
        } else {
            return statusError(StatusCode::ParseError,
                               "fuzz case line " +
                                   std::to_string(lineNo) +
                                   ": unknown key '" + key + "'");
        }
    }
    if (!sawFormat)
        return statusError(StatusCode::BadMagic,
                           "fuzz case: missing format= line");
    clampConfig(out.gen);
    return out;
}

std::string
formatCase(const FuzzCase &fuzz_case)
{
    const FuzzCase &c = fuzz_case;
    std::ostringstream out;
    out << "# pabp fuzz case (docs/FUZZING.md)\n";
    out << "format=pabp-fuzz-case-v1\n";
    out << "name=" << c.name << "\n";
    out << "seed=" << c.seed << "\n";
    out << "predictor=" << c.predictor << "\n";
    out << "size_log2=" << c.sizeLog2 << "\n";
    out << "engine=" << engineSpecString(c.engine) << "\n";
    out << "avail_delay=" << c.engine.availDelay << "\n";
    out << "oracles=" << formatOracleMask(c.oracles) << "\n";
    out << "max_insts=" << c.maxInsts << "\n";
    out << "items=" << c.gen.items << "\n";
    out << "repeats=" << c.gen.repeats << "\n";
    out << "branch_density=" << c.gen.branchDensity << "\n";
    out << "pred_nest=" << c.gen.predNestDepth << "\n";
    out << "loop_depth=" << c.gen.loopDepth << "\n";
    out << "call_depth=" << c.gen.callDepth << "\n";
    out << "hb_pressure=" << c.gen.hbPressure << "\n";
    out << "div_edges=" << c.gen.divEdgePercent << "\n";
    out << "data_branches=" << c.gen.dataBranchPercent << "\n";
    out << "empty_ras=" << (c.gen.emptyRas ? 1 : 0) << "\n";
    out << "data_window=" << c.gen.dataWindow << "\n";
    out << "corrupt_flips=" << c.corruptFlips << "\n";
    out << "corrupt_seed=" << c.corruptSeed << "\n";
    out << "corrupt_truncate=" << c.corruptTruncate << "\n";
    out << "contexts=" << c.contexts << "\n";
    out << "ctx_schedule=" << scheduleKindName(c.ctxSchedule) << "\n";
    out << "ctx_quantum=" << c.ctxQuantum << "\n";
    out << "ctx_seed=" << c.ctxSeed << "\n";
    out << "ctx_shared=" << (c.ctxShared ? 1 : 0) << "\n";
    out << "ctx_tag_bits=" << c.ctxTagBits << "\n";
    return out.str();
}

Expected<FuzzCase>
readCaseFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return statusError(StatusCode::IoError,
                           "fuzz case: cannot open " + path);
    std::ostringstream text;
    text << in.rdbuf();
    if (in.bad())
        return statusError(StatusCode::IoError,
                           "fuzz case: read failed for " + path);
    Expected<FuzzCase> parsed = parseCase(text.str());
    if (!parsed.ok())
        return statusError(parsed.status().code(),
                           path + ": " + parsed.status().message());
    return parsed;
}

Status
writeCaseFile(const std::string &path, const FuzzCase &fuzz_case)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out)
        return statusError(StatusCode::IoError,
                           "fuzz case: cannot create " + path);
    out << formatCase(fuzz_case);
    out.flush();
    if (!out)
        return statusError(StatusCode::IoError,
                           "fuzz case: write failed for " + path);
    return {};
}

} // namespace pabp::fuzz
