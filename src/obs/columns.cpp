#include "obs/columns.hpp"

#include <bit>
#include <filesystem>
#include <unordered_set>

namespace ethsim::obs {

namespace {

static_assert(std::endian::native == std::endian::little,
              "the columnar container is little-endian and written raw");

constexpr char kMagic[8] = {'E', 'T', 'H', 'C', 'O', 'L', 'S', '\0'};
constexpr std::uint32_t kFormatVersion = 1;
// Longest accepted column name: bounds what a corrupt header can allocate.
constexpr std::uint32_t kMaxNameLength = 4096;

// Indexed by ColumnType.
constexpr std::uint64_t kWidth[] = {8, 8, 4, 2, 1};
constexpr const char* kTypeName[] = {"i64", "u64", "u32", "u16", "u8"};
constexpr std::size_t kTypeCount = std::size(kWidth);

std::uint64_t Width(ColumnType type) {
  return kWidth[static_cast<std::size_t>(type)];
}

template <typename T>
void Put(std::ofstream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool Get(std::ifstream& in, T* value) {
  in.read(reinterpret_cast<char*>(value), sizeof(T));
  return in.good();
}

}  // namespace

bool ColumnWriter::Write(const std::string& path, std::string* error) const {
  const auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return false;
  };
  std::unordered_set<std::string_view> names;
  for (const Column& column : columns_)
    if (column.name.empty() || !names.insert(column.name).second)
      return fail(path + ": duplicate or empty column name '" + column.name +
                  "'");
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return fail("cannot open " + path + " for writing");
  out.write(kMagic, sizeof(kMagic));
  Put(out, kFormatVersion);
  Put(out, static_cast<std::uint32_t>(columns_.size()));
  for (const Column& column : columns_) {
    Put(out, static_cast<std::uint32_t>(column.name.size()));
    out.write(column.name.data(),
              static_cast<std::streamsize>(column.name.size()));
    Put(out, column.type);
    Put(out, column.rows);
  }
  for (const Column& column : columns_)
    out.write(static_cast<const char*>(column.data),
              static_cast<std::streamsize>(column.rows * Width(column.type)));
  out.flush();
  if (!out.good()) return fail("short write to " + path);
  return true;
}

bool ColumnReader::Fail(std::string* error, const std::string& message) const {
  if (error != nullptr) *error = path_ + ": " + message;
  return false;
}

bool ColumnReader::Open(const std::string& path, std::string* error) {
  path_ = path;
  columns_.clear();
  in_ = std::ifstream(path, std::ios::binary);
  std::error_code ec;
  const std::uint64_t size = std::filesystem::file_size(path, ec);
  if (!in_ || ec) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  char magic[sizeof(kMagic)];
  in_.read(magic, sizeof(magic));
  if (!in_.good() || std::string_view(magic, sizeof(magic)) !=
                         std::string_view(kMagic, sizeof(kMagic)))
    return Fail(error, "bad magic (not an ethsim columnar artifact)");
  std::uint32_t version = 0;
  std::uint32_t count = 0;
  if (!Get(in_, &version)) return Fail(error, "truncated header");
  if (version != kFormatVersion)
    return Fail(error, "unsupported format version " + std::to_string(version));
  if (!Get(in_, &count)) return Fail(error, "truncated header");

  // Every claimed length is checked against the bytes actually present, and
  // the running data size never exceeds the file size, so no arithmetic
  // below can overflow and nothing large is allocated.
  std::uint64_t header = sizeof(kMagic) + 2 * sizeof(std::uint32_t);
  std::uint64_t data = 0;
  std::unordered_set<std::string> names;
  for (std::uint32_t i = 0; i < count; ++i) {
    std::uint32_t length = 0;
    if (!Get(in_, &length)) return Fail(error, "truncated header");
    header += sizeof(length);
    if (length == 0)
      return Fail(error, "column " + std::to_string(i) + " has an empty name");
    if (length > kMaxNameLength || length > size - header)
      return Fail(error, "truncated header");
    Column column;
    column.name.resize(length);
    in_.read(column.name.data(), length);
    std::uint8_t type = 0;
    if (!in_.good() || !Get(in_, &type) || !Get(in_, &column.rows))
      return Fail(error, "truncated header");
    header += length + sizeof(type) + sizeof(column.rows);
    if (type >= kTypeCount)
      return Fail(error, "column '" + column.name + "' has unknown type code " +
                             std::to_string(type));
    if (!names.insert(column.name).second)
      return Fail(error, "duplicate column name '" + column.name + "'");
    column.type = static_cast<ColumnType>(type);
    const std::uint64_t width = Width(column.type);
    if (column.rows > (size - data) / width)
      return Fail(error, "truncated column data (column '" + column.name +
                             "' declares " + std::to_string(column.rows) +
                             " rows)");
    column.offset = data;  // relative until the header size is known
    data += column.rows * width;
    columns_.push_back(std::move(column));
  }
  if (header + data > size)
    return Fail(error, "truncated column data (" + std::to_string(size) +
                           " bytes, header declares " +
                           std::to_string(header + data) + ")");
  if (header + data < size)
    return Fail(error, "trailing bytes after columns (" + std::to_string(size) +
                           " bytes, header declares " +
                           std::to_string(header + data) + ")");
  for (Column& column : columns_) column.offset += header;
  return true;
}

const ColumnReader::Column* ColumnReader::Find(std::string_view name,
                                               ColumnType type,
                                               std::uint64_t rows,
                                               std::string* error) const {
  for (const Column& column : columns_) {
    if (column.name != name) continue;
    if (column.type != type) {
      Fail(error, "column '" + column.name + "' is " +
                      kTypeName[static_cast<std::size_t>(column.type)] +
                      ", expected " + kTypeName[static_cast<std::size_t>(type)]);
      return nullptr;
    }
    if (rows != kAnyRows && column.rows != rows) {
      Fail(error, "column '" + column.name + "' has " +
                      std::to_string(column.rows) + " rows, expected " +
                      std::to_string(rows));
      return nullptr;
    }
    return &column;
  }
  Fail(error, "missing column '" + std::string(name) + "'");
  return nullptr;
}

bool ColumnReader::Read(const Column& column, void* out, std::string* error) {
  in_.clear();
  in_.seekg(static_cast<std::streamoff>(column.offset));
  in_.read(static_cast<char*>(out),
           static_cast<std::streamsize>(column.rows * Width(column.type)));
  if (!in_.good())
    return Fail(error, "truncated column data (column '" + column.name + "')");
  return true;
}

}  // namespace ethsim::obs
