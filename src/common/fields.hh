/**
 * @file
 * One field list per record.
 *
 * The records that identify a run (GpuConfig, KernelProfile and their
 * parts) and the results the run cache stores (PerfResult,
 * EnergyBreakdown and their parts) each list their members once, in a
 * static `fields` template kept beside the struct:
 *
 *     template <typename Self, typename Visit>
 *     static void
 *     fields(Self &self, Visit &&v)
 *     {
 *         auto &[a, b] = self;
 *         v("a", a);
 *         v("b", b);
 *     }
 *
 * The structured binding names every member, so a member added to the
 * struct but not to its list fails the build. Equality and ordering
 * are the structs' defaulted comparison operators; the lists drive
 * only what the compiler cannot derive: the persistent fingerprint
 * (hashFields, below) and the run-cache codec (harness/run_cache.cc).
 */

#ifndef MMGPU_COMMON_FIELDS_HH
#define MMGPU_COMMON_FIELDS_HH

#include <cstdint>
#include <ranges>
#include <string>
#include <type_traits>

#include "common/hash.hh"

namespace mmgpu
{

/** A struct that lists its members through a static fields(). */
template <typename T>
concept FieldListed = requires(T &record) {
    T::fields(record, [](const char *, auto &) {});
};

/**
 * Mix @p value into @p hash through its field list, recursively:
 * sequences by length then element, strings with their length,
 * doubles by bit pattern, integers and enums at their own width
 * (FNV-1a pays one round per byte, and most fields are narrow).
 */
template <typename T>
void
hashFields(Fnv1a &hash, const T &value)
{
    if constexpr (FieldListed<T>) {
        T::fields(value, [&hash](const char *, const auto &field) {
            hashFields(hash, field);
        });
    } else if constexpr (std::is_same_v<T, std::string>) {
        hash.add(value);
    } else if constexpr (std::ranges::range<T>) {
        hash.add(static_cast<std::uint64_t>(std::ranges::size(value)));
        for (const auto &element : value)
            hashFields(hash, element);
    } else if constexpr (std::is_floating_point_v<T>) {
        hash.add(value);
    } else {
        hash.addLow(static_cast<std::uint64_t>(value), sizeof(T));
    }
}

} // namespace mmgpu

#endif // MMGPU_COMMON_FIELDS_HH
