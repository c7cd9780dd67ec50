/**
 * @file
 * mmgpu-lint rules: the repo policy, expressed over the FileModel the
 * lexer produces. Each rule is a free function appending Diagnostics;
 * lintFile() runs them all and then applies suppression directives.
 *
 * Scoping:
 *   - determinism-* and error-path apply to library code (under
 *     src/) only; tests and benches may use clocks and exit freely.
 *   - layering applies to quoted includes under src/.
 *   - include-path and header-guard apply everywhere scanned.
 *
 * The layering table below IS the architecture: a module missing
 * from it cannot be included at all, so adding a module forces an
 * explicit decision about where it sits in the DAG.
 */

#include "lint.hh"

#include <algorithm>
#include <cctype>

namespace mmgpu::lint
{

namespace
{

/**
 * Module key of a module-relative path ("noc/topologies/ring.hh").
 * Normally the first component, but when the layering table has a
 * two-level row ("noc/topologies", "engine/placement") the finer key
 * wins, so sub-layers get their own DAG position instead of hiding
 * inside the parent module's permissions.
 */
std::string
moduleKeyOf(const std::string &rel, const Config &config)
{
    const std::size_t slash = rel.find('/');
    if (slash == std::string::npos)
        return {};
    const std::size_t slash2 = rel.find('/', slash + 1);
    if (slash2 != std::string::npos) {
        std::string two = rel.substr(0, slash2);
        if (config.layering.count(two))
            return two;
    }
    return rel.substr(0, slash);
}

/** "src/noc/topologies/ring.cc" -> "noc/topologies" (registered) or
 *  "noc"; "" when not under src/. */
std::string
moduleOf(const std::string &path, const Config &config)
{
    if (path.rfind("src/", 0) != 0)
        return {};
    return moduleKeyOf(path.substr(4), config);
}

bool
inLibrary(const FileModel &file)
{
    return file.path.rfind("src/", 0) == 0;
}

void
report(std::vector<Diagnostic> &out, const FileModel &file, int line,
       const char *rule, std::string message)
{
    out.push_back({file.path, line, rule, std::move(message)});
}

const Token *
prevTok(const FileModel &file, std::size_t i)
{
    return i > 0 ? &file.tokens[i - 1] : nullptr;
}

const Token *
nextTok(const FileModel &file, std::size_t i)
{
    return i + 1 < file.tokens.size() ? &file.tokens[i + 1] : nullptr;
}

bool
isPunct(const Token *t, std::string_view text)
{
    return t && t->kind == Token::Kind::Punct && t->text == text;
}

/** True when token i is qualified by `ns::` for some non-std ns —
 *  i.e. it names something in a user namespace, not libc/std. */
bool
userQualified(const FileModel &file, std::size_t i)
{
    const Token *prev = prevTok(file, i);
    if (!isPunct(prev, "::") || i < 2)
        return false;
    const Token &qual = file.tokens[i - 2];
    return qual.kind == Token::Kind::Identifier && qual.text != "std" &&
           qual.text != "chrono" && qual.text != "this_thread";
}

bool
memberAccess(const FileModel &file, std::size_t i)
{
    const Token *prev = prevTok(file, i);
    return isPunct(prev, ".") || isPunct(prev, "->");
}

// ---------------------------------------------------------------- //
// determinism-clock

/** Banned wherever they appear (member access excepted): these names
 *  are unambiguous even without a call. */
constexpr std::string_view bannedAlways[] = {
    "random_device", "mt19937",       "mt19937_64",
    "minstd_rand",   "minstd_rand0",  "default_random_engine",
    "system_clock",  "steady_clock",  "high_resolution_clock",
    "srand",         "drand48",       "lrand48",
    "mrand48",       "srand48",       "gettimeofday",
    "clock_gettime", "timespec_get",  "sleep_for",
    "sleep_until",   "localtime",     "gmtime",
    "nanosleep",     "usleep",
};

/** Banned only as a direct call: `time(`, `clock(` — plain words
 *  that are legitimate member/variable names elsewhere. */
constexpr std::string_view bannedCalls[] = {
    "time",
    "clock",
    "rand",
    "random",
};

void
ruleDeterminismClock(const FileModel &file, const Config &config,
                     std::vector<Diagnostic> &out)
{
    if (!inLibrary(file) || config.determinismExempt.count(file.path))
        return;
    for (std::size_t i = 0; i < file.tokens.size(); ++i) {
        const Token &tok = file.tokens[i];
        if (tok.kind != Token::Kind::Identifier)
            continue;
        if (memberAccess(file, i) || userQualified(file, i))
            continue;
        const bool always =
            std::find(std::begin(bannedAlways), std::end(bannedAlways),
                      tok.text) != std::end(bannedAlways);
        const bool call =
            std::find(std::begin(bannedCalls), std::end(bannedCalls),
                      tok.text) != std::end(bannedCalls) &&
            isPunct(nextTok(file, i), "(");
        if (always || call) {
            report(out, file, tok.line, "determinism-clock",
                   "host time / randomness via '" + tok.text +
                       "' in library code; route through "
                       "common/rng.hh or common/wallclock.hh so "
                       "simulation results replay bit-exact");
        }
    }
}

// ---------------------------------------------------------------- //
// determinism-ptr-key

constexpr std::string_view keyedContainers[] = {
    "map",           "set",
    "multimap",      "multiset",
    "unordered_map", "unordered_set",
    "unordered_multimap", "unordered_multiset",
};

/**
 * Scan the first template argument of the container starting at the
 * `<` at index @p open; return true when it is a raw pointer type.
 * `>>` counts as two closes so nested templates terminate correctly.
 */
bool
firstArgIsPointer(const FileModel &file, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < file.tokens.size(); ++i) {
        const Token &tok = file.tokens[i];
        if (tok.kind != Token::Kind::Punct) {
            continue;
        } else if (tok.text == "<") {
            ++depth;
        } else if (tok.text == ">") {
            if (--depth == 0)
                return false;
        } else if (tok.text == ">>") {
            depth -= 2;
            if (depth <= 0)
                return false;
        } else if (tok.text == "," && depth == 1) {
            return false;
        } else if (tok.text == "*" && depth == 1) {
            return true;
        } else if (tok.text == ";" || tok.text == "{") {
            // Not a template argument list after all (a < b; ...).
            return false;
        }
    }
    return false;
}

void
ruleDeterminismPtrKey(const FileModel &file, const Config &config,
                      std::vector<Diagnostic> &out)
{
    if (!inLibrary(file) || config.determinismExempt.count(file.path))
        return;
    for (std::size_t i = 0; i + 1 < file.tokens.size(); ++i) {
        const Token &tok = file.tokens[i];
        if (tok.kind != Token::Kind::Identifier)
            continue;
        if (std::find(std::begin(keyedContainers),
                      std::end(keyedContainers),
                      tok.text) == std::end(keyedContainers))
            continue;
        if (!isPunct(nextTok(file, i), "<"))
            continue;
        if (firstArgIsPointer(file, i + 1)) {
            report(out, file, tok.line, "determinism-ptr-key",
                   "'" + tok.text +
                       "' keyed by a raw pointer: iteration order "
                       "depends on allocation addresses and changes "
                       "run to run; key by a stable id instead");
        }
    }
}

// ---------------------------------------------------------------- //
// determinism-float-accum

/** Name fragments that mark a variable as an accumulator feeding
 *  energy / traffic totals. */
constexpr std::string_view accumFragments[] = {
    "total", "sum",  "accum", "energy", "joule",
    "byte",  "flit", "traffic", "watt",  "epi",
};

bool
looksLikeAccumulator(std::string name)
{
    std::transform(name.begin(), name.end(), name.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (name == "acc")
        return true;
    for (std::string_view frag : accumFragments) {
        if (name.find(frag) != std::string::npos)
            return true;
    }
    return false;
}

void
ruleDeterminismFloatAccum(const FileModel &file, const Config &config,
                          std::vector<Diagnostic> &out)
{
    if (!inLibrary(file) || config.determinismExempt.count(file.path))
        return;
    std::set<std::string> floatVars;
    for (std::size_t i = 0; i + 1 < file.tokens.size(); ++i) {
        const Token &tok = file.tokens[i];
        if (tok.kind != Token::Kind::Identifier || tok.text != "float")
            continue;
        const Token *next = nextTok(file, i);
        if (!next || next->kind != Token::Kind::Identifier)
            continue;
        floatVars.insert(next->text);
        if (looksLikeAccumulator(next->text)) {
            report(out, file, next->line, "determinism-float-accum",
                   "float accumulator '" + next->text +
                       "': single precision drifts across "
                       "accumulation orders; energy and traffic "
                       "totals must be double");
        }
    }
    if (floatVars.empty())
        return;
    for (std::size_t i = 0; i + 1 < file.tokens.size(); ++i) {
        const Token &tok = file.tokens[i];
        if (tok.kind == Token::Kind::Identifier &&
            floatVars.count(tok.text) &&
            isPunct(nextTok(file, i), "+=") &&
            !memberAccess(file, i) &&
            !looksLikeAccumulator(tok.text)) {
            // Accumulator-named floats already fired at declaration.
            report(out, file, tok.line, "determinism-float-accum",
                   "'" + tok.text +
                       "' is declared float but accumulated with "
                       "+=; use double for running sums");
        }
    }
}

// ---------------------------------------------------------------- //
// layering + include-path

void
ruleIncludes(const FileModel &file, const Config &config,
             std::vector<Diagnostic> &out)
{
    const std::string mod = moduleOf(file.path, config);
    for (const Include &inc : file.includes) {
        if (inc.angled) {
            // Repo headers must not sneak in through the system
            // include path — that would dodge the layering check.
            const std::size_t slash = inc.path.find('/');
            if (slash != std::string::npos &&
                config.layering.count(inc.path.substr(0, slash))) {
                report(out, file, inc.line, "include-path",
                       "repo header <" + inc.path +
                           "> included with angle brackets; use "
                           "quotes so layering applies");
            }
            continue;
        }
        if (!inc.path.empty() && inc.path.front() == '/') {
            report(out, file, inc.line, "include-path",
                   "absolute include path \"" + inc.path + "\"");
            continue;
        }
        if (inc.path.find("..") != std::string::npos ||
            inc.path.rfind("./", 0) == 0) {
            report(out, file, inc.line, "include-path",
                   "relative include path \"" + inc.path +
                       "\"; include repo headers as "
                       "\"module/header.hh\"");
            continue;
        }

        if (mod.empty())
            continue; // tests/bench may include local helpers

        const std::size_t slash = inc.path.find('/');
        if (slash == std::string::npos) {
            report(out, file, inc.line, "include-path",
                   "unqualified include \"" + inc.path +
                       "\" in library code; spell it "
                       "\"module/header.hh\"");
            continue;
        }
        const std::string incMod = moduleKeyOf(inc.path, config);

        auto allowed = config.layering.find(mod);
        if (allowed == config.layering.end()) {
            report(out, file, inc.line, "layering",
                   "module 'src/" + mod +
                       "' is not in the layering table; register "
                       "its dependencies in tools/lint/rules.cc");
            continue;
        }
        if (!config.layering.count(incMod)) {
            report(out, file, inc.line, "layering",
                   "include \"" + inc.path +
                       "\" names unknown module '" + incMod + "'");
            continue;
        }
        if (!allowed->second.count(incMod)) {
            report(out, file, inc.line, "layering",
                   "src/" + mod + " may not include \"" + inc.path +
                       "\": '" + incMod +
                       "' is not among its declared dependencies "
                       "(back edge in the module DAG)");
        }
    }
}

// ---------------------------------------------------------------- //
// error-path

constexpr std::string_view bannedExits[] = {
    "exit", "abort", "_Exit", "_exit", "quick_exit", "terminate",
};

/** Keywords after which an identifier is an expression, not a
 *  declarator. */
constexpr std::string_view exprKeywords[] = {
    "return", "throw", "case", "do", "else", "co_return", "co_yield",
};

/**
 * Distinguish a call `exit(1)` from a declaration `TraceOp exit()`:
 * a preceding identifier that is not an expression keyword (or a
 * preceding `>`, `*`, `&` closing a return type) marks a declarator.
 */
bool
looksLikeDeclarator(const FileModel &file, std::size_t i)
{
    const Token *prev = prevTok(file, i);
    if (!prev)
        return false;
    if (prev->kind == Token::Kind::Identifier) {
        return std::find(std::begin(exprKeywords),
                         std::end(exprKeywords),
                         prev->text) == std::end(exprKeywords);
    }
    return isPunct(prev, ">") || isPunct(prev, "*") ||
           isPunct(prev, "&");
}

void
ruleErrorPath(const FileModel &file, const Config &config,
              std::vector<Diagnostic> &out)
{
    if (!inLibrary(file) || config.errorPathExempt.count(file.path))
        return;
    for (std::size_t i = 0; i < file.tokens.size(); ++i) {
        const Token &tok = file.tokens[i];
        if (tok.kind != Token::Kind::Identifier)
            continue;
        if (tok.text == "throw") {
            report(out, file, tok.line, "error-path",
                   "'throw' in library code; report failures as "
                   "Result<T, SimError> (or mmgpu_panic for "
                   "framework bugs)");
            continue;
        }
        if (std::find(std::begin(bannedExits), std::end(bannedExits),
                      tok.text) == std::end(bannedExits))
            continue;
        if (!isPunct(nextTok(file, i), "("))
            continue;
        if (memberAccess(file, i) || userQualified(file, i) ||
            looksLikeDeclarator(file, i))
            continue;
        report(out, file, tok.line, "error-path",
               "'" + tok.text +
                   "()' in library code kills the whole sweep "
                   "process; return Result<T, SimError> and let the "
                   "harness decide");
    }
}

// ---------------------------------------------------------------- //
// header-guard

void
ruleHeaderGuard(const FileModel &file, std::vector<Diagnostic> &out)
{
    if (file.isHeader && !file.hasGuard) {
        report(out, file, 1, "header-guard",
               "header has no include guard (#ifndef/#define pair "
               "or #pragma once)");
    }
}

bool
suppressed(const FileModel &file, const Diagnostic &diag)
{
    if (file.fileAllows.count(diag.rule))
        return true;
    auto it = file.lineAllows.find(diag.line);
    return it != file.lineAllows.end() && it->second.count(diag.rule);
}

} // namespace

Config
Config::repoDefault()
{
    Config config;
    // Transitive closure of the module DAG, self-edges included.
    // fault and telemetry are cross-cutting leaves (they depend only
    // on common) so anything above may pull them in.
    const std::set<std::string> leaves = {"common", "fault",
                                          "telemetry"};
    auto with = [&](std::set<std::string> deps,
                    const std::string &self) {
        deps.insert(leaves.begin(), leaves.end());
        deps.insert(self);
        return deps;
    };
    config.layering["common"] = {"common"};
    config.layering["telemetry"] = {"telemetry", "common"};
    config.layering["fault"] = {"fault", "common"};
    config.layering["isa"] = with({}, "isa");
    config.layering["trace"] = with({"isa"}, "trace");
    // noc and its fabric plugins are mutual: plugins derive from the
    // base interface, and the registry (the composition point) is
    // the one place allowed to name every concrete fabric. Nothing
    // else may include a plugin header — consumers go through
    // makeNetwork()/TopologyDesc.
    config.layering["noc"] = with({"noc/topologies"}, "noc");
    config.layering["noc/topologies"] =
        with({"noc"}, "noc/topologies");
    config.layering["sm"] = with({"noc"}, "sm");
    config.layering["mem"] = with({"noc", "isa"}, "mem");
    config.layering["engine"] =
        with({"sm", "mem", "noc", "isa", "trace"}, "engine");
    // Placement strategies sit beside the engine: they see the CTA
    // policy interface, the scheduler, and kernel profiles, but not
    // the memory system or the fabrics they steer traffic onto.
    config.layering["engine/placement"] =
        with({"sm", "trace", "isa", "engine"}, "engine/placement");
    config.layering["sim"] = with({"engine", "engine/placement",
                                   "sm", "mem", "noc", "isa", "trace"},
                                  "sim");
    config.layering["power"] = with({"isa"}, "power");
    config.layering["gpujoule"] = with({"power", "isa"}, "gpujoule");
    config.layering["metrics"] = with({}, "metrics");
    config.layering["harness"] =
        with({"sim", "engine", "engine/placement", "sm", "mem",
              "noc", "isa", "trace", "power", "gpujoule", "metrics"},
             "harness");
    // The service layer sits on top of everything: it serves what
    // the harness computes and must never be included from below.
    config.layering["serve"] =
        with({"harness", "sim", "engine", "engine/placement", "sm",
              "mem", "noc", "isa", "trace", "power", "gpujoule",
              "metrics"},
             "serve");

    // The shims are where host time/randomness is allowed to live.
    config.determinismExempt = {
        "src/common/rng.hh",
        "src/common/wallclock.hh",
        "src/common/wallclock.cc",
    };
    // The logging shims implement panic/fatal and must terminate.
    config.errorPathExempt = {
        "src/common/logging.hh",
        "src/common/logging.cc",
    };
    // Calls that can block indefinitely (or for a scheduling
    // quantum): forbidden while a lock scope is open. writeLine /
    // tryRun / catchPanic (which runs a whole supervised job) are the
    // repo's own slow-path entry points; the rest are libc / std
    // names.
    config.blockingCalls = {
        "writeLine", "sleepMs", "join",    "fsync",
        "fdatasync", "poll",    "send",    "recv",
        "accept",    "connect", "flush",   "tryRun",
        "catchPanic",
    };
    return config;
}

std::vector<Diagnostic>
lintFile(const FileModel &file, const Config &config)
{
    return lintFiles({file}, config);
}

std::vector<Diagnostic>
lintFiles(const std::vector<FileModel> &files, const Config &config)
{
    std::vector<Diagnostic> out;
    for (const FileModel &file : files) {
        ruleDeterminismClock(file, config, out);
        ruleDeterminismPtrKey(file, config, out);
        ruleDeterminismFloatAccum(file, config, out);
        ruleIncludes(file, config, out);
        ruleErrorPath(file, config, out);
        ruleHeaderGuard(file, out);
    }
    detail::lintConcurrency(files, config, out);

    std::map<std::string, const FileModel *> byPath;
    for (const FileModel &file : files)
        byPath.emplace(file.path, &file);
    out.erase(std::remove_if(out.begin(), out.end(),
                             [&](const Diagnostic &diag) {
                                 auto it = byPath.find(diag.file);
                                 return it != byPath.end() &&
                                        suppressed(*it->second, diag);
                             }),
              out.end());
    std::sort(out.begin(), out.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    return out;
}

const std::vector<std::pair<std::string, std::string>> &
ruleCatalog()
{
    static const std::vector<std::pair<std::string, std::string>> rules{
        {"determinism-clock",
         "no host clocks or libc randomness outside the common shims"},
        {"determinism-ptr-key",
         "no pointer-keyed associative containers (address-ordered)"},
        {"determinism-float-accum",
         "no float accumulators in energy/traffic totals"},
        {"layering", "includes must follow the module DAG"},
        {"include-path",
         "quoted includes are module-qualified, no .. or absolute"},
        {"error-path",
         "no exit/abort/terminate/throw in library code"},
        {"header-guard", "every header carries an include guard"},
        {"guarded-field",
         "MMGPU_GUARDED_BY fields are only touched with the lock held"},
        {"lock-order",
         "the global mutex acquisition graph (declared + observed) "
         "is acyclic"},
        {"condvar-discipline",
         "waits take a predicate; notifies run under the paired mutex"},
        {"no-blocking-under-lock",
         "no blocking call (I/O, sleep, join) inside a lock scope"},
        {"unknown-suppression",
         "allow()/allow-file() directives must name real rules"},
    };
    return rules;
}

} // namespace mmgpu::lint
