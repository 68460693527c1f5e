// Columnar artifact container: the one on-disk format behind provenance.bin,
// timeseries.bin and txprov.bin. A file is a list of named, typed columns:
//
//   char magic[8] "ETHCOLS\0" | u32 version | u32 column_count
//   per column: u32 name_length | name bytes | u8 type | u64 rows
//   then each column's bytes, in declaration order, with no padding
//
// Everything is little-endian; a static_assert pins the host byte order, so
// whole vectors are written and read as-is. A scalar is a one-row column.
//
// The reader checks the whole header — known type codes, unique non-empty
// names, declared bytes equal to the file size — before it allocates any
// column, so a corrupt header costs one line of error naming the path, never
// a huge allocation. Each log's reader Takes the columns it knows and checks
// its own invariants on top.
#pragma once

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ethsim::obs {

enum class ColumnType : std::uint8_t { kI64 = 0, kU64, kU32, kU16, kU8 };

template <typename T>
constexpr ColumnType ColumnTypeOf() {
  if constexpr (std::is_same_v<T, std::int64_t>) return ColumnType::kI64;
  if constexpr (std::is_same_v<T, std::uint64_t>) return ColumnType::kU64;
  if constexpr (std::is_same_v<T, std::uint32_t>) return ColumnType::kU32;
  if constexpr (std::is_same_v<T, std::uint16_t>) return ColumnType::kU16;
  if constexpr (std::is_same_v<T, std::uint8_t>) return ColumnType::kU8;
}

// Collects borrowed columns, then writes them in one pass; the vectors and
// scalars must outlive Write(). Fails on a duplicate or empty name, an
// unopenable path or a short write.
class ColumnWriter {
 public:
  template <typename T>
  void Add(std::string name, const std::vector<T>& values) {
    columns_.push_back(
        {std::move(name), ColumnTypeOf<T>(), values.size(), values.data()});
  }
  template <typename T>
  void AddScalar(std::string name, const T& value) {
    columns_.push_back({std::move(name), ColumnTypeOf<T>(), 1, &value});
  }
  bool Write(const std::string& path, std::string* error = nullptr) const;

 private:
  struct Column {
    std::string name;
    ColumnType type;
    std::uint64_t rows;
    const void* data;
  };
  std::vector<Column> columns_;
};

class ColumnReader {
 public:
  struct Column {
    std::string name;
    ColumnType type;
    std::uint64_t rows;
    std::uint64_t offset;  // file offset of the first byte
  };
  static constexpr std::uint64_t kAnyRows = UINT64_MAX;

  // Opens `path` and checks the header against the file size.
  bool Open(const std::string& path, std::string* error = nullptr);

  // Header entries in declaration order.
  const std::vector<Column>& columns() const { return columns_; }

  // Reads column `name`. Fails on a missing column, a type mismatch, or
  // (unless `rows` is kAnyRows) a row count other than `rows`.
  template <typename T>
  bool Take(std::string_view name, std::vector<T>* out,
            std::string* error = nullptr, std::uint64_t rows = kAnyRows) {
    const Column* column = Find(name, ColumnTypeOf<T>(), rows, error);
    if (column == nullptr) return false;
    out->resize(column->rows);
    return Read(*column, out->data(), error);
  }
  template <typename T>
  bool TakeScalar(std::string_view name, T* out, std::string* error = nullptr) {
    const Column* column = Find(name, ColumnTypeOf<T>(), 1, error);
    return column != nullptr && Read(*column, out, error);
  }

  // Sets `error` to "<path>: <message>" and returns false, so log readers
  // report their own checks the same way.
  bool Fail(std::string* error, const std::string& message) const;

 private:
  const Column* Find(std::string_view name, ColumnType type,
                     std::uint64_t rows, std::string* error) const;
  bool Read(const Column& column, void* out, std::string* error);

  std::string path_;
  std::ifstream in_;
  std::vector<Column> columns_;
};

}  // namespace ethsim::obs
