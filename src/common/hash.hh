/**
 * @file
 * Incremental 64-bit FNV-1a hashing.
 *
 * The harness fingerprints experiment inputs (configurations,
 * workload profiles, calibration outcomes) so runs can be memoized
 * across threads and persisted across processes. The hash must be
 * stable across platforms and process invocations — std::hash gives
 * no such guarantee — so we fix the algorithm here. Not
 * cryptographic; cache keys only.
 */

#ifndef MMGPU_COMMON_HASH_HH
#define MMGPU_COMMON_HASH_HH

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <type_traits>

namespace mmgpu
{

/** Accumulates a 64-bit FNV-1a digest over typed fields. */
class Fnv1a
{
  public:
    /** @param salt Optional domain-separation salt (schema version). */
    explicit Fnv1a(std::uint64_t salt = 0)
    {
        add(salt);
    }

    /** Mix raw bytes. */
    Fnv1a &
    addBytes(const void *data, std::size_t size)
    {
        const auto *bytes = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            digest_ ^= bytes[i];
            digest_ *= prime;
        }
        return *this;
    }

    /** Mix one 64-bit word (little-endian byte order, fixed). */
    Fnv1a &add(std::uint64_t word) { return addLow(word, 8); }

    /** Mix the low @p bytes bytes of @p word, little-endian (fixed). */
    Fnv1a &
    addLow(std::uint64_t word, std::size_t bytes)
    {
        for (std::size_t i = 0; i < bytes; ++i) {
            digest_ ^= (word >> (8 * i)) & 0xffu;
            digest_ *= prime;
        }
        return *this;
    }

    /** Mix a double by its IEEE-754 bit pattern (exact). */
    Fnv1a &
    add(double value)
    {
        return add(std::bit_cast<std::uint64_t>(value));
    }

    /** Mix a string including its length (prefix-collision safe). */
    Fnv1a &
    add(std::string_view text)
    {
        add(static_cast<std::uint64_t>(text.size()));
        return addBytes(text.data(), text.size());
    }

    Fnv1a &add(const std::string &text)
    {
        return add(std::string_view(text));
    }

    Fnv1a &add(const char *text)
    {
        return add(std::string_view(text));
    }

    /** Mix any integral or enum value through uint64. */
    template <typename T>
        requires(std::is_integral_v<T> || std::is_enum_v<T>)
    Fnv1a &
    add(T value)
    {
        return add(static_cast<std::uint64_t>(value));
    }

    /** The current digest. */
    std::uint64_t digest() const { return digest_; }

  private:
    static constexpr std::uint64_t offsetBasis = 0xcbf29ce484222325ull;
    static constexpr std::uint64_t prime = 0x100000001b3ull;

    std::uint64_t digest_ = offsetBasis;
};

} // namespace mmgpu

#endif // MMGPU_COMMON_HASH_HH
