#include "util/file_view.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <utility>

namespace shapestats {

Result<FileView> FileView::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IOError("cannot open " + path);
  FileView view;
  struct stat st;
  const bool regular = ::fstat(fd, &st) == 0 && S_ISREG(st.st_mode);
  if (regular && st.st_size > 0) {
    void* map = ::mmap(nullptr, static_cast<size_t>(st.st_size), PROT_READ,
                       MAP_PRIVATE | MAP_POPULATE, fd, 0);
    if (map != MAP_FAILED) {
      ::close(fd);
      view.map_ = static_cast<const char*>(map);
      view.map_size_ = static_cast<size_t>(st.st_size);
      return view;
    }
  }
  // Not mappable: read the descriptor to its end.
  char chunk[1 << 16];
  for (;;) {
    const ssize_t n = ::read(fd, chunk, sizeof(chunk));
    if (n > 0) {
      view.owned_.append(chunk, static_cast<size_t>(n));
    } else if (n == 0) {
      break;
    } else if (errno != EINTR) {
      ::close(fd);
      return Status::IOError("read failed: " + path);
    }
  }
  ::close(fd);
  return view;
}

FileView::FileView(FileView&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      map_size_(std::exchange(other.map_size_, 0)),
      owned_(std::move(other.owned_)) {}

// Swapping hands this view's old mapping to `other`, which unmaps it.
FileView& FileView::operator=(FileView&& other) noexcept {
  std::swap(map_, other.map_);
  std::swap(map_size_, other.map_size_);
  owned_.swap(other.owned_);
  return *this;
}

FileView::~FileView() {
  if (map_ != nullptr) ::munmap(const_cast<char*>(map_), map_size_);
}

}  // namespace shapestats
