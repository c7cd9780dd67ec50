/**
 * @file
 * mmgpu-lint concurrency rules: the static half of the repo's
 * concurrency discipline (the dynamic half is TSan's race and
 * lock-order detectors, run over tier2 by scripts/ci.sh).
 *
 * These rules read the MMGPU_GUARDED_BY / MMGPU_REQUIRES /
 * MMGPU_ACQUIRED_BEFORE annotations from common/thread_safety.hh as
 * *lint-visible tokens* — no compiler needed, so the checks run under
 * GCC where clang's -Wthread-safety cannot.
 *
 * The pass is cross-file: annotations usually live in a header while
 * the accesses live in the .cc that implements it, so lintFiles()
 * first builds a whole-tree annotation table (pass 1), then walks
 * every function body tracking open lock scopes (pass 2):
 *
 *   guarded-field            a field annotated GUARDED_BY(m) is only
 *                            touched while a scope holds m — a
 *                            lock_guard/unique_lock/scoped_lock/
 *                            shared_lock naming m, or a function
 *                            annotated MMGPU_REQUIRES(m)
 *   lock-order               declared ACQUIRED_BEFORE edges plus
 *                            every observed lexical nesting form one
 *                            global digraph; a cycle means two code
 *                            paths disagree about acquisition order
 *                            (the watchdogged deadlocks TSan only
 *                            catches when the schedule cooperates)
 *   condvar-discipline       wait() takes a predicate (spurious
 *                            wakeups, lost notifies); notify_one/
 *                            notify_all runs under the cv's paired
 *                            annotated mutex (or at least some lock)
 *   no-blocking-under-lock   no call into Config::blockingCalls
 *                            (socket I/O, sleeps, joins, flushes)
 *                            while a lock scope is open
 *   unknown-suppression      every allow()/allow-file() names a rule
 *                            in the catalog
 *
 * Matching is token-based and last-identifier-keyed: a held lock on
 * `sq.mutex` satisfies a guard annotation naming `mutex`, and a held
 * `shard.mutex` satisfies `Shard::entries`'s guard. Class scoping
 * keeps common field names from colliding: a *bare* identifier is
 * only checked inside methods of the class that declared the
 * annotation; member accesses (`x.field`, `p->field`) are checked by
 * field name wherever they appear.
 */

#include "lint.hh"

#include <algorithm>
#include <cctype>

namespace mmgpu::lint
{

namespace
{

bool
isPunctTok(const Token &t, std::string_view text)
{
    return t.kind == Token::Kind::Punct && t.text == text;
}

bool
isIdentTok(const Token &t, std::string_view text)
{
    return t.kind == Token::Kind::Identifier && t.text == text;
}

/** Index just past the group opened at @p open (`(`/`{`/`[`),
 *  treating all three bracket kinds as one nesting discipline. */
std::size_t
skipGroup(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (toks[i].kind != Token::Kind::Punct)
            continue;
        const std::string &t = toks[i].text;
        if (t == "(" || t == "{" || t == "[")
            ++depth;
        else if (t == ")" || t == "}" || t == "]") {
            if (--depth == 0)
                return i + 1;
        }
    }
    return toks.size();
}

/** Index just past a template argument group opened by `<`. `>>`
 *  closes two levels. Returns @p open + 1 when it does not look like
 *  a template group (hits `;`/`{` first). */
std::size_t
skipTemplate(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t i = open; i < toks.size(); ++i) {
        if (toks[i].kind != Token::Kind::Punct)
            continue;
        const std::string &t = toks[i].text;
        if (t == "<") {
            ++depth;
        } else if (t == ">") {
            if (--depth == 0)
                return i + 1;
        } else if (t == ">>") {
            depth -= 2;
            if (depth <= 0)
                return i + 1;
        } else if (t == ";" || t == "{") {
            return open + 1; // comparison, not a template
        }
    }
    return toks.size();
}

/** Last identifier inside [begin, end) — "sq.mutex" -> "mutex". */
std::string
lastIdent(const std::vector<Token> &toks, std::size_t begin,
          std::size_t end)
{
    for (std::size_t i = end; i-- > begin;) {
        if (toks[i].kind == Token::Kind::Identifier)
            return toks[i].text;
    }
    return {};
}

/** Split the argument list of the group at @p open (index of `(`)
 *  into top-level (begin, end) token ranges; returns the index just
 *  past the closing `)`. */
std::size_t
splitArgs(const std::vector<Token> &toks, std::size_t open,
          std::vector<std::pair<std::size_t, std::size_t>> &args)
{
    const std::size_t close = skipGroup(toks, open) - 1;
    std::size_t begin = open + 1;
    int depth = 0;
    for (std::size_t i = open + 1; i < close; ++i) {
        if (toks[i].kind != Token::Kind::Punct)
            continue;
        const std::string &t = toks[i].text;
        if (t == "(" || t == "{" || t == "[")
            ++depth;
        else if (t == ")" || t == "}" || t == "]")
            --depth;
        else if (t == "," && depth == 0) {
            args.emplace_back(begin, i);
            begin = i + 1;
        }
    }
    if (begin < close)
        args.emplace_back(begin, close);
    return close + 1;
}

// ---------------------------------------------------------------- //
// Pass 1: the whole-tree annotation table.

/** Field F of class C is guarded by mutex M. */
struct GuardedField
{
    std::string cls;   //!< innermost enclosing class ("" = none)
    std::string field;
    std::string mutex; //!< last identifier of the GUARDED_BY arg
    bool condVar = false;
    std::string file;
    int line = 1;
};

/** Declared or observed acquisition-order edge from -> to. */
struct OrderEdge
{
    std::string from;
    std::string to;
    std::string file;
    int line = 1;
    bool declared = false; //!< MMGPU_ACQUIRED_BEFORE vs observed
};

struct AnnotationTable
{
    /** field name -> annotations (several classes may share a
     *  field name; member accesses try each). */
    std::map<std::string, std::vector<GuardedField>> byField;

    /** (class, method) -> mutexes its MMGPU_REQUIRES declares held.
     *  Class "" covers free functions. */
    std::map<std::pair<std::string, std::string>,
             std::vector<std::string>>
        requires_;

    /** (class, mutex-field) pairs that exist, for lock-order node
     *  naming. */
    std::set<std::pair<std::string, std::string>> mutexFields;

    std::vector<OrderEdge> declaredEdges;

    /** First characters of byField keys: a O(1) prefilter so the
     *  per-identifier map lookup only runs on plausible tokens. */
    bool fieldFirst[256] = {};

    void seal()
    {
        for (const auto &entry : byField)
            fieldFirst[static_cast<unsigned char>(
                entry.first[0])] = true;
    }
};

/** Tracks the innermost `class`/`struct` name while scanning. */
class ClassTracker
{
public:
    /** Feed token @p i; call once per token, in order. */
    void feed(const std::vector<Token> &toks, std::size_t i)
    {
        const Token &tok = toks[i];
        if (tok.kind == Token::Kind::Punct) {
            if (tok.text == "{") {
                ++depth_;
                if (!pending_.empty()) {
                    stack_.push_back({pending_, depth_});
                    pending_.clear();
                }
            } else if (tok.text == "}") {
                if (!stack_.empty() && stack_.back().second == depth_)
                    stack_.pop_back();
                --depth_;
            } else if (tok.text == ";" && depth_ == pendingDepth_) {
                pending_.clear(); // forward declaration
            }
            return;
        }
        if (tok.kind != Token::Kind::Identifier)
            return;
        if ((tok.text == "class" || tok.text == "struct") &&
            !(i > 0 && isIdentTok(toks[i - 1], "enum"))) {
            // The next plain identifier names the type; skip
            // attribute-macro noise like MMGPU_FOO("x").
            for (std::size_t j = i + 1; j < toks.size(); ++j) {
                const Token &t = toks[j];
                if (t.kind == Token::Kind::Identifier) {
                    if (t.text.rfind("MMGPU_", 0) == 0 &&
                        j + 1 < toks.size() &&
                        isPunctTok(toks[j + 1], "(")) {
                        j = skipGroup(toks, j + 1) - 1;
                        continue;
                    }
                    pending_ = t.text;
                    pendingDepth_ = depth_;
                    break;
                }
                if (t.kind != Token::Kind::String)
                    break; // anonymous struct or macro expansion
            }
        }
    }

    std::string current() const
    {
        return stack_.empty() ? std::string() : stack_.back().first;
    }

    int depth() const { return depth_; }

private:
    std::vector<std::pair<std::string, int>> stack_;
    std::string pending_;
    int pendingDepth_ = -1;
    int depth_ = 0;
};

/** True when the declaration the annotation at @p i closes is a
 *  condition variable: scan back to the start of the declaration for
 *  a ConditionVariable / condition_variable type name. */
bool
declIsCondVar(const std::vector<Token> &toks, std::size_t i)
{
    for (std::size_t j = i; j-- > 0;) {
        const Token &t = toks[j];
        if (t.kind == Token::Kind::Punct &&
            (t.text == ";" || t.text == "{" || t.text == "}"))
            return false;
        if (t.kind == Token::Kind::Identifier &&
            (t.text == "ConditionVariable" ||
             t.text.rfind("condition_variable", 0) == 0))
            return true;
    }
    return false;
}

void
collectAnnotations(const FileModel &file, AnnotationTable &table)
{
    const std::vector<Token> &toks = file.tokens;
    // Most files carry no annotations at all; one cheap first-char
    // scan beats running the class tracker over every token.
    bool annotated = false;
    for (const Token &t : toks) {
        if (t.kind == Token::Kind::Identifier && !t.text.empty() &&
            t.text[0] == 'M' && t.text.rfind("MMGPU_", 0) == 0 &&
            (t.text == "MMGPU_GUARDED_BY" ||
             t.text == "MMGPU_ACQUIRED_BEFORE" ||
             t.text == "MMGPU_REQUIRES")) {
            annotated = true;
            break;
        }
    }
    if (!annotated)
        return;
    ClassTracker cls;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        cls.feed(toks, i);
        const Token &tok = toks[i];
        if (tok.kind != Token::Kind::Identifier)
            continue;

        if ((tok.text == "MMGPU_GUARDED_BY" ||
             tok.text == "MMGPU_ACQUIRED_BEFORE") &&
            i > 0 && i + 1 < toks.size() &&
            toks[i - 1].kind == Token::Kind::Identifier &&
            isPunctTok(toks[i + 1], "(")) {
            const std::string field = toks[i - 1].text;
            const std::size_t close = skipGroup(toks, i + 1) - 1;
            const std::string arg = lastIdent(toks, i + 2, close);
            if (arg.empty())
                continue;
            if (tok.text == "MMGPU_GUARDED_BY") {
                GuardedField g;
                g.cls = cls.current();
                g.field = field;
                g.mutex = arg;
                g.condVar = declIsCondVar(toks, i - 1);
                g.file = file.path;
                g.line = tok.line;
                table.byField[field].push_back(std::move(g));
                table.mutexFields.emplace(cls.current(), arg);
            } else {
                // field must be acquired before arg: both are mutex
                // fields of the current class.
                const std::string c = cls.current();
                table.mutexFields.emplace(c, field);
                table.mutexFields.emplace(c, arg);
                const std::string qual = c.empty() ? "" : c + "::";
                table.declaredEdges.push_back({qual + field,
                                               qual + arg, file.path,
                                               tok.line, true});
            }
            continue;
        }

        if (tok.text == "MMGPU_REQUIRES" && i + 1 < toks.size() &&
            isPunctTok(toks[i + 1], "(")) {
            // Walk back over `)` / const / noexcept to the parameter
            // list, then to the function name before its `(`.
            std::size_t j = i;
            while (j > 0 &&
                   (isIdentTok(toks[j - 1], "const") ||
                    isIdentTok(toks[j - 1], "noexcept")))
                --j;
            if (j == 0 || !isPunctTok(toks[j - 1], ")"))
                continue;
            int depth = 0;
            std::size_t open = j - 1;
            while (open > 0) {
                if (isPunctTok(toks[open], ")"))
                    ++depth;
                else if (isPunctTok(toks[open], "(") && --depth == 0)
                    break;
                --open;
            }
            if (open == 0 ||
                toks[open - 1].kind != Token::Kind::Identifier)
                continue;
            const std::string func = toks[open - 1].text;
            std::string owner = cls.current();
            if (open >= 2 && isPunctTok(toks[open - 2], "::") &&
                open >= 3 &&
                toks[open - 3].kind == Token::Kind::Identifier)
                owner = toks[open - 3].text;
            std::vector<std::pair<std::size_t, std::size_t>> args;
            splitArgs(toks, i + 1, args);
            auto &held = table.requires_[{owner, func}];
            for (auto [b, e] : args) {
                std::string m = lastIdent(toks, b, e);
                if (!m.empty())
                    held.push_back(std::move(m));
            }
        }
    }
}

// ---------------------------------------------------------------- //
// Pass 2: function bodies, lock scopes, and the four checks.

constexpr std::string_view lockScopeTypes[] = {
    "lock_guard",
    "unique_lock",
    "scoped_lock",
    "shared_lock",
};

struct LockScope
{
    int depth;             //!< brace depth at the declaration
    std::string var;       //!< guard variable name ("" = unnamed)
    std::vector<std::string> mutexes; //!< last-ident of each arg
    bool active = true;    //!< false after var.unlock()
};

struct FunctionCtx
{
    bool open = false;
    int bodyDepth = 0;       //!< depth just inside the body brace
    std::string cls;         //!< "" for free functions
    std::string name;
    bool ctorDtor = false;
    std::vector<std::string> requiresHeld;
    std::vector<LockScope> scopes;
};

class BodyScanner
{
public:
    BodyScanner(const FileModel &file, const Config &config,
                const AnnotationTable &table,
                std::vector<Diagnostic> &out,
                std::vector<OrderEdge> &edges)
        : file_(file), config_(config), table_(table), out_(out),
          edges_(edges)
    {
        // First-char gate for the per-identifier checks: the union of
        // every name any of them could match. Most identifiers fail
        // here and skip all five checks.
        for (std::string_view t : lockScopeTypes)
            interesting_[static_cast<unsigned char>(t[0])] = true;
        for (const char *t : {"lock", "unlock", "wait", "notify_one",
                              "notify_all"})
            interesting_[static_cast<unsigned char>(t[0])] = true;
        for (const std::string &t : config.blockingCalls)
            if (!t.empty())
                interesting_[static_cast<unsigned char>(t[0])] = true;
        for (int c = 0; c < 256; ++c)
            if (table.fieldFirst[c])
                interesting_[c] = true;
    }

    void run()
    {
        const std::vector<Token> &toks = file_.tokens;
        for (std::size_t i = 0; i < toks.size(); ++i) {
            cls_.feed(toks, i);
            const Token &tok = toks[i];
            if (tok.kind == Token::Kind::Punct) {
                if (tok.text == "{")
                    ++depth_;
                else if (tok.text == "}")
                    closeBrace();
                continue;
            }
            if (tok.kind != Token::Kind::Identifier)
                continue;

            if (!func_.open) {
                // On entry the body '{' at the returned index is
                // already counted; jump the cursor past it so the
                // main loop does not count it twice (which would
                // keep the function context open forever). The class
                // tracker still needs every skipped token, or its
                // brace depth desyncs and pops the class early.
                const std::size_t body = maybeEnterFunction(i);
                if (body != npos) {
                    for (std::size_t k = i + 1; k <= body; ++k)
                        cls_.feed(toks, k);
                    i = body;
                }
                continue;
            }
            if (tok.text.empty() ||
                !interesting_[static_cast<unsigned char>(
                    tok.text[0])])
                continue;
            if (maybeOpenLockScope(i))
                continue;
            maybeToggleScope(i);
            checkCondVar(i);
            checkBlocking(i);
            checkGuardedField(i);
        }
    }

private:
    static constexpr std::size_t npos =
        static_cast<std::size_t>(-1);

    void closeBrace()
    {
        --depth_;
        if (!func_.open)
            return;
        auto &scopes = func_.scopes;
        while (!scopes.empty() && scopes.back().depth > depth_)
            scopes.pop_back();
        if (depth_ < func_.bodyDepth)
            func_ = FunctionCtx{};
    }

    /**
     * Function-entry detection: at class/namespace scope, a
     * `[Qual ::] name (` whose parameter list is followed — after
     * const/noexcept/override/final/MMGPU_* attribute groups, a
     * trailing return, or a constructor init list — by `{` opens a
     * function body. Returns the index of the body '{' (already
     * counted into depth_) on entry, npos otherwise.
     */
    std::size_t maybeEnterFunction(std::size_t i)
    {
        const std::vector<Token> &toks = file_.tokens;
        if (i + 1 >= toks.size() || !isPunctTok(toks[i + 1], "("))
            return npos;
        // `name (` where name is not a control keyword.
        const std::string &name = toks[i].text;
        if (name == "if" || name == "for" || name == "while" ||
            name == "switch" || name == "return" || name == "catch" ||
            name == "sizeof" || name == "decltype")
            return npos;
        std::string owner = cls_.current();
        if (i >= 2 && isPunctTok(toks[i - 1], "::") &&
            toks[i - 2].kind == Token::Kind::Identifier)
            owner = toks[i - 2].text;

        std::size_t j = skipGroup(toks, i + 1); // past `)`
        std::vector<std::string> requiresHeld;
        bool sawInitList = false;
        while (j < toks.size()) {
            const Token &t = toks[j];
            if (t.kind == Token::Kind::Identifier) {
                if (t.text == "MMGPU_REQUIRES" &&
                    j + 1 < toks.size() &&
                    isPunctTok(toks[j + 1], "(")) {
                    std::vector<std::pair<std::size_t, std::size_t>>
                        args;
                    j = splitArgs(toks, j + 1, args);
                    for (auto [b, e] : args) {
                        std::string m = lastIdent(toks, b, e);
                        if (!m.empty())
                            requiresHeld.push_back(std::move(m));
                    }
                    continue;
                }
                if (t.text == "const" || t.text == "noexcept" ||
                    t.text == "override" || t.text == "final" ||
                    t.text == "try" ||
                    t.text.rfind("MMGPU_", 0) == 0) {
                    ++j;
                    if (j < toks.size() && isPunctTok(toks[j], "("))
                        j = skipGroup(toks, j);
                    continue;
                }
                if (sawInitList) {
                    ++j; // identifiers inside the init list
                    continue;
                }
                return npos; // e.g. `int x (y);` style declaration
            }
            if (isPunctTok(t, ":")) {
                sawInitList = true;
                ++j;
                continue;
            }
            if (isPunctTok(t, "->")) {
                // Trailing return type: skip to the body brace.
                ++j;
                while (j < toks.size() &&
                       !isPunctTok(toks[j], "{") &&
                       !isPunctTok(toks[j], ";"))
                    ++j;
                continue;
            }
            if (sawInitList &&
                (isPunctTok(t, "(") || isPunctTok(t, "["))) {
                j = skipGroup(toks, j);
                continue;
            }
            if (sawInitList && isPunctTok(t, ",")) {
                ++j;
                continue;
            }
            if (isPunctTok(t, "{")) {
                if (sawInitList && j > 0 &&
                    (toks[j - 1].kind == Token::Kind::Identifier ||
                     isPunctTok(toks[j - 1], ">"))) {
                    j = skipGroup(toks, j); // brace member init
                    continue;
                }
                // The body.
                func_.open = true;
                func_.bodyDepth = depth_ + 1;
                func_.cls = owner;
                func_.name = name;
                func_.ctorDtor =
                    name == owner ||
                    (i >= 1 && isPunctTok(toks[i - 1], "~"));
                func_.requiresHeld = std::move(requiresHeld);
                auto it = table_.requires_.find({owner, name});
                if (it != table_.requires_.end())
                    func_.requiresHeld.insert(
                        func_.requiresHeld.end(),
                        it->second.begin(), it->second.end());
                ++depth_;
                return j;
            }
            return npos; // `;`, `=`, `,` ... declaration/expression
        }
        return npos;
    }

    /** `std::lock_guard<T> var(m);` and friends open a scope. */
    bool maybeOpenLockScope(std::size_t i)
    {
        const std::vector<Token> &toks = file_.tokens;
        const std::string &name = toks[i].text;
        if (std::find(std::begin(lockScopeTypes),
                      std::end(lockScopeTypes),
                      name) == std::end(lockScopeTypes))
            return false;
        std::size_t j = i + 1;
        if (j < toks.size() && isPunctTok(toks[j], "<"))
            j = skipTemplate(toks, j);
        if (j >= toks.size() ||
            toks[j].kind != Token::Kind::Identifier)
            return false;
        const std::string var = toks[j].text;
        if (j + 1 >= toks.size() || !isPunctTok(toks[j + 1], "("))
            return false;
        std::vector<std::pair<std::size_t, std::size_t>> args;
        splitArgs(toks, j + 1, args);
        LockScope scope;
        scope.depth = depth_;
        scope.var = var;
        for (auto [b, e] : args) {
            const std::string m = lastIdent(toks, b, e);
            if (m == "defer_lock") {
                scope.active = false;
                continue;
            }
            if (m == "adopt_lock" || m == "try_to_lock")
                continue;
            if (!m.empty())
                scope.mutexes.push_back(m);
            if (name != "scoped_lock")
                break; // only the first arg names the mutex
        }
        if (scope.mutexes.empty())
            return false;
        if (scope.active)
            recordNesting(scope, toks[i].line);
        func_.scopes.push_back(std::move(scope));
        return true;
    }

    /** `var.unlock()` / `var.lock()` toggles its scope. */
    void maybeToggleScope(std::size_t i)
    {
        const std::vector<Token> &toks = file_.tokens;
        const std::string &name = toks[i].text;
        if (name != "lock" && name != "unlock")
            return;
        if (i < 2 || !isPunctTok(toks[i - 1], ".") ||
            toks[i - 2].kind != Token::Kind::Identifier)
            return;
        if (i + 1 >= toks.size() || !isPunctTok(toks[i + 1], "("))
            return;
        const std::string &var = toks[i - 2].text;
        for (auto it = func_.scopes.rbegin();
             it != func_.scopes.rend(); ++it) {
            if (it->var == var) {
                const bool activating = name == "lock";
                if (activating && !it->active)
                    recordNesting(*it, toks[i].line);
                it->active = activating;
                return;
            }
        }
    }

    std::vector<std::string> heldMutexes() const
    {
        std::vector<std::string> held = func_.requiresHeld;
        for (const LockScope &s : func_.scopes)
            if (s.active)
                held.insert(held.end(), s.mutexes.begin(),
                            s.mutexes.end());
        return held;
    }

    bool holds(const std::string &mutex) const
    {
        if (!func_.requiresHeld.empty() &&
            std::find(func_.requiresHeld.begin(),
                      func_.requiresHeld.end(),
                      mutex) != func_.requiresHeld.end())
            return true;
        for (const LockScope &s : func_.scopes) {
            if (s.active &&
                std::find(s.mutexes.begin(), s.mutexes.end(),
                          mutex) != s.mutexes.end())
                return true;
        }
        return false;
    }

    /** Lock-order node: class-qualify when the current class (or the
     *  annotation table) knows @p mutex as a field of it. */
    std::string nodeName(const std::string &mutex) const
    {
        if (table_.mutexFields.count({func_.cls, mutex}))
            return func_.cls + "::" + mutex;
        return mutex;
    }

    /** A new scope opened while others are held: record edges. */
    void recordNesting(const LockScope &scope, int line)
    {
        for (const std::string &inner : scope.mutexes) {
            const std::string to = nodeName(inner);
            for (const std::string &outer : heldMutexes()) {
                const std::string from = nodeName(outer);
                if (from == to)
                    continue; // distinct instances of one class
                edges_.push_back(
                    {from, to, file_.path, line, false});
            }
        }
    }

    void checkCondVar(std::size_t i)
    {
        const std::vector<Token> &toks = file_.tokens;
        const std::string &name = toks[i].text;
        const bool isWait = name == "wait";
        const bool isNotify =
            name == "notify_one" || name == "notify_all";
        if (!isWait && !isNotify)
            return;
        if (i < 2 ||
            (!isPunctTok(toks[i - 1], ".") &&
             !isPunctTok(toks[i - 1], "->")) ||
            toks[i - 2].kind != Token::Kind::Identifier)
            return;
        if (i + 1 >= toks.size() || !isPunctTok(toks[i + 1], "("))
            return;
        const std::string &obj = toks[i - 2].text;

        if (isWait) {
            std::vector<std::pair<std::size_t, std::size_t>> args;
            splitArgs(toks, i + 1, args);
            if (args.size() == 1) {
                report(toks[i].line, "condvar-discipline",
                       "'" + obj +
                           ".wait(lock)' without a predicate: a "
                           "spurious wakeup or a notify that races "
                           "the state change resumes with the "
                           "condition false; use the predicate "
                           "overload");
            }
            return;
        }

        // notify_one / notify_all: the paired annotated mutex (or at
        // least some lock) must be held, or the notify can slip
        // between a waiter's predicate check and its block, and the
        // wakeup is lost.
        auto it = table_.byField.find(obj);
        if (it != table_.byField.end()) {
            for (const GuardedField &g : it->second) {
                if (!g.condVar)
                    continue;
                if (!holds(g.mutex)) {
                    report(toks[i].line, "condvar-discipline",
                           "'" + obj + "." + name +
                               "()' without holding '" + g.mutex +
                               "' (its GUARDED_BY pairing): the "
                               "notify can land between a waiter's "
                               "predicate check and its block and "
                               "be lost");
                }
                return;
            }
        }
        if (heldMutexes().empty()) {
            report(toks[i].line, "condvar-discipline",
                   "'" + obj + "." + name +
                       "()' with no lock held and no GUARDED_BY "
                       "pairing; notify under the mutex the waiters "
                       "check their predicate with");
        }
    }

    void checkBlocking(std::size_t i)
    {
        const std::vector<Token> &toks = file_.tokens;
        // Cheap call-site test before the set lookup: most
        // identifiers are not followed by '('.
        if (i + 1 >= toks.size() || !isPunctTok(toks[i + 1], "("))
            return;
        if (!config_.blockingCalls.count(toks[i].text))
            return;
        const std::vector<std::string> held = heldMutexes();
        if (held.empty())
            return;
        report(toks[i].line, "no-blocking-under-lock",
               "'" + toks[i].text + "()' called while holding '" +
                   held.back() +
                   "': a blocking call under a lock turns a slow "
                   "peer into a stalled subsystem (and a deadlock "
                   "when the unblocker needs the same lock)");
    }

    void checkGuardedField(std::size_t i)
    {
        const std::vector<Token> &toks = file_.tokens;
        if (!table_.fieldFirst[static_cast<unsigned char>(
                toks[i].text[0])])
            return;
        auto it = table_.byField.find(toks[i].text);
        if (it == table_.byField.end())
            return;
        // The annotated declaration itself.
        if (i + 1 < toks.size() &&
            toks[i + 1].kind == Token::Kind::Identifier &&
            (toks[i + 1].text == "MMGPU_GUARDED_BY" ||
             toks[i + 1].text == "MMGPU_ACQUIRED_BEFORE"))
            return;

        const bool member = i > 0 && (isPunctTok(toks[i - 1], ".") ||
                                      isPunctTok(toks[i - 1], "->"));
        if (!member) {
            // Qualified names (Cls::field) and declarations are not
            // accesses; bare identifiers are checked only inside
            // methods of the annotating class.
            if (i > 0 && isPunctTok(toks[i - 1], "::"))
                return;
            if (func_.ctorDtor)
                return;
            for (const GuardedField &g : it->second) {
                if (g.cls != func_.cls || g.cls.empty())
                    continue;
                // Annotated condition variables are the condvar
                // rule's business (notify under the paired mutex);
                // waits intrinsically hold the lock.
                if (g.condVar)
                    return;
                if (!holds(g.mutex)) {
                    report(toks[i].line, "guarded-field",
                           "field '" + g.field + "' (" + g.cls +
                               ") is GUARDED_BY(" + g.mutex +
                               ") but accessed without it");
                }
                return;
            }
            return;
        }

        // Member access: `this->field` checks like a bare access;
        // `obj.field` requires some held lock naming the guard.
        if (func_.ctorDtor && i >= 2 &&
            isIdentTok(toks[i - 2], "this"))
            return;
        const GuardedField *worst = nullptr;
        for (const GuardedField &g : it->second) {
            if (g.condVar || holds(g.mutex))
                return;
            worst = &g;
        }
        if (worst == nullptr)
            return;
        report(toks[i].line, "guarded-field",
               "field '" + worst->field + "' (" +
                   (worst->cls.empty() ? std::string("::")
                                       : worst->cls) +
                   ") is GUARDED_BY(" + worst->mutex +
                   ") but accessed without it");
    }

    void report(int line, const char *rule, std::string message)
    {
        out_.push_back({file_.path, line, rule, std::move(message)});
    }

    const FileModel &file_;
    const Config &config_;
    const AnnotationTable &table_;
    std::vector<Diagnostic> &out_;
    std::vector<OrderEdge> &edges_;

    ClassTracker cls_;
    int depth_ = 0;
    FunctionCtx func_;
    bool interesting_[256] = {};
};

// ---------------------------------------------------------------- //
// lock-order: cycle detection over the global edge set.

bool
edgeReaches(const std::map<std::string, std::set<std::string>> &graph,
            const std::string &from, const std::string &to)
{
    std::vector<std::string> stack{from};
    std::set<std::string> visited;
    while (!stack.empty()) {
        std::string at = stack.back();
        stack.pop_back();
        if (at == to)
            return true;
        if (!visited.insert(at).second)
            continue;
        auto it = graph.find(at);
        if (it == graph.end())
            continue;
        for (const std::string &next : it->second)
            stack.push_back(next);
    }
    return false;
}

void
checkLockOrder(const std::vector<OrderEdge> &edges,
               std::vector<Diagnostic> &out)
{
    std::map<std::string, std::set<std::string>> graph;
    for (const OrderEdge &e : edges)
        graph[e.from].insert(e.to);

    // An edge a->b closes a cycle when b already reaches a without
    // it. Report each offending (a, b) once, at its first recording.
    std::map<std::string, std::set<std::string>> trimmed;
    std::set<std::pair<std::string, std::string>> reported;
    for (const OrderEdge &e : edges) {
        if (reported.count({e.from, e.to}))
            continue;
        // Does some *other* path order e.to before e.from?
        auto &fromSet = graph[e.from];
        fromSet.erase(e.to);
        const bool cyclic = edgeReaches(graph, e.to, e.from);
        fromSet.insert(e.to);
        if (!cyclic)
            continue;
        reported.insert({e.from, e.to});
        out.push_back(
            {e.file, e.line, "lock-order",
             std::string(e.declared ? "declared" : "observed") +
                 " acquisition '" + e.from + "' -> '" + e.to +
                 "' closes a cycle: another code path (or an "
                 "MMGPU_ACQUIRED_BEFORE annotation) orders '" +
                 e.to + "' before '" + e.from +
                 "' — an ABBA deadlock waiting for the right "
                 "schedule"});
    }
    (void)trimmed;
}

// ---------------------------------------------------------------- //
// unknown-suppression

void
checkSuppressions(const FileModel &file,
                  std::vector<Diagnostic> &out)
{
    std::set<std::string> known;
    for (const auto &[id, desc] : ruleCatalog())
        known.insert(id);
    for (const auto &[line, rule] : file.allowMentions) {
        if (known.count(rule))
            continue;
        out.push_back(
            {file.path, line, "unknown-suppression",
             "suppression names unknown rule '" + rule +
                 "'; it silences nothing (see --list-rules for "
                 "valid ids)"});
    }
}

} // namespace

namespace detail
{

void
lintConcurrency(const std::vector<FileModel> &files,
                const Config &config, std::vector<Diagnostic> &out)
{
    AnnotationTable table;
    for (const FileModel &file : files)
        collectAnnotations(file, table);
    table.seal();

    std::vector<OrderEdge> edges = table.declaredEdges;
    for (const FileModel &file : files) {
        BodyScanner scanner(file, config, table, out, edges);
        scanner.run();
        checkSuppressions(file, out);
    }
    checkLockOrder(edges, out);
}

} // namespace detail

} // namespace mmgpu::lint
