#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// Result checks computed apart from the program under test. Every expected
// value here is derived from the benchmark's own inputs (the load pattern,
// the deltas it issued, the slots it assigned), never read back from
// DSM-DB, so a check cannot agree with a wrong answer by construction.

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Every record value starts with a signed 64-bit balance; the bytes after
/// it hold the load pattern and are never written by the workloads.
inline constexpr size_t kBalanceBytes = 8;

/// Byte `i` (i >= kBalanceBytes) of record `key`'s load pattern: a function
/// of the key alone.
inline uint8_t PatternByte(uint64_t key, size_t i) {
  uint64_t x = key * 0x9E3779B97F4A7C15ULL + i * 0xBF58476D1CE4E5B9ULL;
  x ^= x >> 31;
  x *= 0x94D049BB133111EBULL;
  x ^= x >> 29;
  return static_cast<uint8_t>(x);
}

/// The value the benchmark loads for `key`.
inline std::string LoadValue(uint64_t key, int64_t balance,
                             size_t value_size) {
  std::string v(value_size, '\0');
  std::memcpy(v.data(), &balance, kBalanceBytes);
  for (size_t i = kBalanceBytes; i < value_size; i++) {
    v[i] = static_cast<char>(PatternByte(key, i));
  }
  return v;
}

inline int64_t BalanceOf(std::string_view value) {
  int64_t b = 0;
  if (value.size() >= kBalanceBytes) {
    std::memcpy(&b, value.data(), kBalanceBytes);
  }
  return b;
}

/// Payload check: true if `value` has the right size and carries `key`'s
/// load pattern in every byte after the balance.
inline bool PayloadOk(uint64_t key, std::string_view value,
                      size_t value_size) {
  if (value.size() != value_size) return false;
  for (size_t i = kBalanceBytes; i < value_size; i++) {
    if (static_cast<uint8_t>(value[i]) != PatternByte(key, i)) return false;
  }
  return true;
}

/// Ledger check: the keys whose final balance differs from the loaded
/// balance plus the sum of the committed deltas the benchmark issued.
/// `committed_delta[k]` is that sum for key k.
inline std::vector<uint64_t> LedgerMismatches(
    const std::vector<int64_t>& loaded,
    const std::vector<int64_t>& committed_delta,
    const std::vector<int64_t>& final_balance) {
  std::vector<uint64_t> bad;
  for (uint64_t k = 0; k < loaded.size(); k++) {
    if (final_balance[k] != loaded[k] + committed_delta[k]) bad.push_back(k);
  }
  return bad;
}

/// Bank-total check: the final total equals the loaded total plus the
/// committed deposits (payments move money, they never create it).
inline bool BankTotalOk(const std::vector<int64_t>& loaded,
                        const std::vector<int64_t>& final_balance,
                        int64_t committed_deposits) {
  int64_t before = 0;
  int64_t after = 0;
  for (int64_t b : loaded) before += b;
  for (int64_t b : final_balance) after += b;
  return after == before + committed_deposits;
}

/// Index check: how many searches returned another slot than the one the
/// generator assigned to the key.
inline uint64_t IndexMismatches(const std::vector<uint64_t>& assigned,
                                const std::vector<uint64_t>& found) {
  uint64_t bad = assigned.size() == found.size() ? 0 : 1;
  for (size_t i = 0; i < assigned.size() && i < found.size(); i++) {
    if (assigned[i] != found[i]) bad++;
  }
  return bad;
}

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
