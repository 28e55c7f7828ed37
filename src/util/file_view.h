// Read-only view of a whole file: the one read path of every loader.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>

#include "util/status.h"

namespace shapestats {

/// The bytes of a file, valid while the object lives. A regular non-empty
/// file is mapped read-only (MAP_PRIVATE | MAP_POPULATE, so one call faults
/// every page in from the page cache, with no copy); it shows the file's
/// length at open, and the file must not shrink while it is mapped (a read
/// past its new end raises SIGBUS). Anything else — a pipe, an empty file, a
/// file whose size reads as 0 — is read from the same descriptor into an
/// owned string.
class FileView {
 public:
  /// Opens `path`. Fails with IOError "cannot open <path>" when the file
  /// cannot be opened and "read failed: <path>" when it cannot be read.
  static Result<FileView> Open(const std::string& path);

  FileView(FileView&& other) noexcept;
  FileView& operator=(FileView&& other) noexcept;
  FileView(const FileView&) = delete;
  FileView& operator=(const FileView&) = delete;
  ~FileView();

  std::string_view text() const {
    return map_ != nullptr ? std::string_view(map_, map_size_) : owned_;
  }

 private:
  FileView() = default;

  const char* map_ = nullptr;  // the mapping, or null when the bytes are owned
  size_t map_size_ = 0;
  std::string owned_;
};

}  // namespace shapestats
