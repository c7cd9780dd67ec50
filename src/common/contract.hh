/**
 * @file
 * Build-gated runtime contracts: the enforcement half of the repo's
 * correctness tooling (mmgpu-lint is the static half).
 *
 * Three macro families, gated by MMGPU_CONTRACT_LEVEL (a compile-time
 * definition; set it with -DMMGPU_CONTRACTS=<level> at configure
 * time):
 *
 *   level 0  everything compiles away (release sweeps at full speed)
 *   level 1  MMGPU_EXPECT / MMGPU_ENSURE active — cheap interface
 *            pre/postconditions on module boundaries (the default)
 *   level 2  + MMGPU_INVARIANT active — expensive internal audits:
 *            energy-conservation, NoC flit-conservation, and pool
 *            accounting checks that walk whole data structures
 *
 * A violated contract is a framework bug, never a user error, so all
 * three report through mmgpu_panic (abort + core dump, or an unwind
 * to the enclosing catchPanic() scope), matching the logging
 * severity contract. User-input validation must keep using
 * Result<T, SimError> / mmgpu_fatal instead — contracts are not an
 * error-reporting channel and vanish at level 0.
 *
 * Audit helpers (e.g. noc::InterGpmNetwork::auditConservation,
 * joule::auditEstimate) are plain functions returning a diagnostic
 * string (empty = pass) so tests can exercise them at any contract
 * level; production call sites wrap them in MMGPU_INVARIANT.
 */

#ifndef MMGPU_COMMON_CONTRACT_HH
#define MMGPU_COMMON_CONTRACT_HH

#include "common/logging.hh"

#ifndef MMGPU_CONTRACT_LEVEL
#define MMGPU_CONTRACT_LEVEL 1
#endif

namespace mmgpu::contract
{

/** Active contract level (0 = off, 1 = interface, 2 = + audits). */
inline constexpr int level = MMGPU_CONTRACT_LEVEL;

/** True when MMGPU_EXPECT / MMGPU_ENSURE are compiled in. */
inline constexpr bool checksEnabled = level >= 1;

/** True when MMGPU_INVARIANT and the conservation audits run. */
inline constexpr bool auditsEnabled = level >= 2;

} // namespace mmgpu::contract

#if MMGPU_CONTRACT_LEVEL >= 1

/** Precondition on a public entry point; violation = caller bug. */
#define MMGPU_EXPECT(cond, ...)                                           \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::mmgpu::panicAt(__FILE__, __LINE__,                          \
                             "precondition violated: ", #cond, " ",       \
                             ##__VA_ARGS__);                              \
        }                                                                 \
    } while (0)

/** Postcondition before returning; violation = callee bug. */
#define MMGPU_ENSURE(cond, ...)                                           \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::mmgpu::panicAt(__FILE__, __LINE__,                          \
                             "postcondition violated: ", #cond, " ",      \
                             ##__VA_ARGS__);                              \
        }                                                                 \
    } while (0)

#else

// Level 0: the condition is type-checked but never evaluated
// (contracts may be O(n)); sizeof keeps the operands "used" so a
// variable that exists only for its contract does not warn.
#define MMGPU_EXPECT(cond, ...) ((void)sizeof((cond) ? 1 : 0))
#define MMGPU_ENSURE(cond, ...) ((void)sizeof((cond) ? 1 : 0))

#endif

#if MMGPU_CONTRACT_LEVEL >= 2

/** Expensive internal invariant (conservation audits, structure
 *  walks); compiled only into audit builds. */
#define MMGPU_INVARIANT(cond, ...)                                        \
    do {                                                                  \
        if (!(cond)) {                                                    \
            ::mmgpu::panicAt(__FILE__, __LINE__,                          \
                             "invariant violated: ", #cond, " ",          \
                             ##__VA_ARGS__);                              \
        }                                                                 \
    } while (0)

#else

#define MMGPU_INVARIANT(cond, ...) ((void)sizeof((cond) ? 1 : 0))

#endif

#endif // MMGPU_COMMON_CONTRACT_HH
