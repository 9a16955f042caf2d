#include "common/number_format.h"

#include <charconv>

namespace oasis {

char* WriteDouble(double value, char* first) {
  return std::to_chars(first, first + kNumberChars, value,
                       std::chars_format::general, 17)
      .ptr;
}

void AppendDouble(double value, std::string* out) {
  char buffer[kNumberChars];
  out->append(buffer, WriteDouble(value, buffer));
}

void AppendInt64(int64_t value, std::string* out) {
  char buffer[kNumberChars];
  out->append(buffer, std::to_chars(buffer, buffer + kNumberChars, value).ptr);
}

}  // namespace oasis
