#include "util/flags.h"

#include <charconv>
#include <cstdlib>
#include <limits>
#include <sstream>
#include <utility>

namespace oipa {

FlagParser::FlagParser(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "true";
    }
  }
}

const std::string* FlagParser::Find(const std::string& key) const {
  read_.insert(key);
  const auto it = values_.find(key);
  return it == values_.end() ? nullptr : &it->second;
}

Status FlagParser::RefuseUnknown() const {
  for (const auto& [key, value] : values_) {
    if (read_.count(key) == 0) {
      return Status::InvalidArgument("unknown flag --" + key);
    }
  }
  return Status::Ok();
}

bool FlagParser::Has(const std::string& key) const {
  return Find(key) != nullptr;
}

std::string FlagParser::GetString(const std::string& key,
                                  const std::string& default_value) const {
  const std::string* text = Find(key);
  return text == nullptr ? default_value : *text;
}

int64_t FlagParser::GetInt(const std::string& key,
                           int64_t default_value) const {
  const std::string* text = Find(key);
  return text == nullptr ? default_value
                         : std::strtoll(text->c_str(), nullptr, 10);
}

double FlagParser::GetDouble(const std::string& key,
                             double default_value) const {
  const std::string* text = Find(key);
  return text == nullptr ? default_value : std::strtod(text->c_str(), nullptr);
}

bool FlagParser::GetBool(const std::string& key, bool default_value) const {
  const std::string* text = Find(key);
  if (text == nullptr) return default_value;
  return *text == "true" || *text == "1" || *text == "yes";
}

std::vector<int64_t> FlagParser::GetIntList(
    const std::string& key, const std::vector<int64_t>& default_value) const {
  const std::string* text = Find(key);
  if (text == nullptr) return default_value;
  std::vector<int64_t> out;
  std::stringstream ss(*text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::strtoll(item.c_str(), nullptr, 10));
  }
  return out;
}

std::vector<double> FlagParser::GetDoubleList(
    const std::string& key, const std::vector<double>& default_value) const {
  const std::string* text = Find(key);
  if (text == nullptr) return default_value;
  std::vector<double> out;
  std::stringstream ss(*text);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::strtod(item.c_str(), nullptr));
  }
  return out;
}

Status FlagParser::ParseInt(const std::string& key, const std::string& text,
                            int64_t min, int64_t max, int64_t* out) {
  const char* end = text.data() + text.size();
  int64_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec == std::errc::invalid_argument || ptr != end) {
    return Status::InvalidArgument("--" + key + " '" + text +
                                   "' is not an integer");
  }
  if (ec == std::errc::result_out_of_range || value < min || value > max) {
    return Status::InvalidArgument("--" + key + " must be in [" +
                                   std::to_string(min) + ", " +
                                   std::to_string(max) + "]");
  }
  *out = value;
  return Status::Ok();
}

Status FlagParser::ReadIntList(const std::string& key,
                               std::vector<int64_t>* out) const {
  const std::string* found = Find(key);
  if (found == nullptr) return Status::Ok();
  const std::string& text = *found;
  std::vector<int64_t> items;
  for (size_t start = 0;;) {
    const size_t comma = text.find(',', start);
    int64_t value = 0;
    OIPA_RETURN_IF_ERROR(ParseInt(key, text.substr(start, comma - start),
                                  std::numeric_limits<int64_t>::min(),
                                  std::numeric_limits<int64_t>::max(),
                                  &value));
    items.push_back(value);
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  *out = std::move(items);
  return Status::Ok();
}

Status FlagParser::ReadDouble(const std::string& key, double* out) const {
  const std::string* text = Find(key);
  if (text == nullptr) return Status::Ok();
  char* end = nullptr;
  const double value = std::strtod(text->c_str(), &end);
  if (text->empty() || *end != '\0') {
    return Status::InvalidArgument("--" + key + " '" + *text +
                                   "' is not a number");
  }
  *out = value;
  return Status::Ok();
}

}  // namespace oipa
