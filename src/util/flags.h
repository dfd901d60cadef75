#ifndef OIPA_UTIL_FLAGS_H_
#define OIPA_UTIL_FLAGS_H_

#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "util/status.h"

namespace oipa {

/// Minimal --key=value command-line parser for examples and benches.
///
///   FlagParser flags(argc, argv);
///   int k = flags.GetInt("k", 50);
///   double eps = flags.GetDouble("epsilon", 0.5);
///   if (flags.Has("help")) { ... }
///
/// Accepts "--key=value", "--key value" and bare "--key" (boolean true).
/// Unrecognized positional arguments are collected in positional().
///
/// The Get* getters are lenient (strtoll/strtod: "3x" reads as 3).
/// Front ends that must refuse such text use the strict Read* getters,
/// which return InvalidArgument naming the flag, and RefuseUnknown()
/// once they have read every flag they know.
class FlagParser {
 public:
  FlagParser(int argc, char** argv);

  bool Has(const std::string& key) const;
  std::string GetString(const std::string& key,
                        const std::string& default_value) const;
  int64_t GetInt(const std::string& key, int64_t default_value) const;
  double GetDouble(const std::string& key, double default_value) const;
  bool GetBool(const std::string& key, bool default_value) const;

  /// Parses a comma-separated list of integers, e.g. "--k=10,20,50".
  std::vector<int64_t> GetIntList(
      const std::string& key, const std::vector<int64_t>& default_value) const;

  /// Parses a comma-separated list of doubles.
  std::vector<double> GetDoubleList(
      const std::string& key, const std::vector<double>& default_value) const;

  /// Strict integer flag: stores the value of `key` in `*out`, which is
  /// left untouched when the flag is absent. InvalidArgument naming the
  /// flag when the text is not a base-10 integer ("1e5", "3x", "") or
  /// the value lies outside [min, max], by default the range of the
  /// signed type T — so no value is ever narrowed.
  template <typename T>
  Status ReadInt(const std::string& key, T* out,
                 int64_t min = std::numeric_limits<T>::min(),
                 int64_t max = std::numeric_limits<T>::max()) const {
    static_assert(std::is_signed_v<T> && sizeof(T) <= sizeof(int64_t));
    const std::string* text = Find(key);
    if (text == nullptr) return Status::Ok();
    int64_t value = 0;
    OIPA_RETURN_IF_ERROR(ParseInt(key, *text, min, max, &value));
    *out = static_cast<T>(value);
    return Status::Ok();
  }

  /// Strict comma-separated list of 64-bit integers, each item read as
  /// ReadInt reads one; an empty item is malformed.
  Status ReadIntList(const std::string& key, std::vector<int64_t>* out) const;

  /// Strict double flag: the whole text must be a number as strtod reads
  /// it ("0.5", "1e-3", "nan"); "0.5x" is InvalidArgument.
  Status ReadDouble(const std::string& key, double* out) const;

  /// InvalidArgument naming the first given flag that no getter above
  /// has asked about ("unknown flag --wokers"), so a misspelled flag is
  /// refused instead of silently running with the default.
  Status RefuseUnknown() const;

  const std::vector<std::string>& positional() const { return positional_; }

 private:
  /// The text of flag `key`, null when absent; records that `key` was
  /// asked about.
  const std::string* Find(const std::string& key) const;

  /// Parses `text`, one item of flag `key`, as a base-10 integer in
  /// [min, max].
  static Status ParseInt(const std::string& key, const std::string& text,
                         int64_t min, int64_t max, int64_t* out);

  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
  /// Every key a getter asked about.
  mutable std::set<std::string> read_;
};

}  // namespace oipa

#endif  // OIPA_UTIL_FLAGS_H_
