/**
 * @file
 * Thread-safety annotation vocabulary — one set of macros drives both
 * halves of the concurrency-discipline toolchain:
 *
 *  - Statically, the tokens are consumed by mmgpu-lint's guarded-field
 *    / lock-order / condvar-discipline rules (tools/lint/rules.cc),
 *    which work on the raw token stream and therefore see the macro
 *    names whether or not the compiler expands them to anything.
 *  - Under clang with -DMMGPU_THREAD_SAFETY=ON they additionally
 *    expand to the -Wthread-safety capability attributes, so clang's
 *    own analysis re-checks the same contracts wherever the mutex
 *    type is a clang capability (std::mutex is one only in libc++
 *    built with its thread-safety annotations; no type in src/
 *    declares one). scripts/ci.sh runs that configuration when clang
 *    is on PATH; GCC builds see empty expansions and pay nothing.
 *
 * Vocabulary (names follow the clang attribute they map to):
 *
 *   MMGPU_GUARDED_BY(m)        field (or condition variable) may only
 *                              be touched while m is held
 *   MMGPU_REQUIRES(m)          function must be called with m held —
 *                              the *Locked() helper convention
 *   MMGPU_EXCLUDES(m)          function must NOT be called with m
 *                              held (it takes m itself, or blocks)
 *   MMGPU_ACQUIRED_BEFORE(m)   declares lock order: this mutex is
 *                              acquired before m wherever both are
 *                              held (seed edges of the lint's
 *                              lock-order DAG)
 *
 * Annotations go after the declarator name:
 *
 *   std::map<Key, Job> inflight_ MMGPU_GUARDED_BY(inflightMutex_);
 *   void resetLocked(State &s) MMGPU_REQUIRES(mutex_);
 */

#ifndef MMGPU_COMMON_THREAD_SAFETY_HH
#define MMGPU_COMMON_THREAD_SAFETY_HH

#if defined(__clang__) && defined(MMGPU_THREAD_SAFETY)
#define MMGPU_TSA_ATTR(x) __attribute__((x))
#else
#define MMGPU_TSA_ATTR(x)
#endif

#define MMGPU_GUARDED_BY(m) MMGPU_TSA_ATTR(guarded_by(m))
#define MMGPU_REQUIRES(...) \
    MMGPU_TSA_ATTR(requires_capability(__VA_ARGS__))
#define MMGPU_EXCLUDES(...) MMGPU_TSA_ATTR(locks_excluded(__VA_ARGS__))
#define MMGPU_ACQUIRED_BEFORE(...) \
    MMGPU_TSA_ATTR(acquired_before(__VA_ARGS__))

#endif // MMGPU_COMMON_THREAD_SAFETY_HH
