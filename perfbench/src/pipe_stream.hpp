// The benchmark's own pipe transport for serve::Server::serve(istream&,
// ostream&): a pipe pair per direction and a minimal std::streambuf over a
// file descriptor. Kept here rather than reusing the server's TCP adapter
// so the benchmark does not depend on which transports the server ships.
#pragma once

#include <unistd.h>

#include <cerrno>
#include <streambuf>
#include <string>

namespace perfbench {

/// One pipe; both ends are closed on destruction.
class Pipe {
 public:
  Pipe() {
    if (::pipe(fds_) != 0) fds_[0] = fds_[1] = -1;
  }
  ~Pipe() {
    close_read();
    close_write();
  }
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  [[nodiscard]] bool ok() const { return fds_[0] >= 0 && fds_[1] >= 0; }
  [[nodiscard]] int read_fd() const { return fds_[0]; }
  [[nodiscard]] int write_fd() const { return fds_[1]; }
  void close_read() { close_fd(fds_[0]); }
  void close_write() { close_fd(fds_[1]); }

  /// Write all of `data`; false when the reader is gone.
  bool write_all(const std::string& data) const {
    usize_t done = 0;
    while (done < data.size()) {
      const ssize_t n = ::write(fds_[1], data.data() + done, data.size() - done);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      done += static_cast<usize_t>(n);
    }
    return true;
  }

 private:
  using usize_t = std::string::size_type;
  static void close_fd(int& fd) {
    if (fd >= 0) ::close(fd);
    fd = -1;
  }
  int fds_[2] = {-1, -1};
};

/// Buffered std::streambuf over one file descriptor (read or write side).
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof(out_));
  }
  ~FdStreamBuf() override { sync(); }
  FdStreamBuf(const FdStreamBuf&) = delete;
  FdStreamBuf& operator=(const FdStreamBuf&) = delete;

 protected:
  int_type underflow() override {
    for (;;) {
      const ssize_t n = ::read(fd_, in_, sizeof(in_));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return traits_type::eof();
      setg(in_, in_, in_ + n);
      return traits_type::to_int_type(*gptr());
    }
  }
  int_type overflow(int_type c) override {
    if (sync() != 0) return traits_type::eof();
    if (!traits_type::eq_int_type(c, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(c);
      pbump(1);
    }
    return traits_type::not_eof(c);
  }
  int sync() override {
    const char* p = pbase();
    while (p < pptr()) {
      const ssize_t n = ::write(fd_, p, static_cast<size_t>(pptr() - p));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return -1;
      p += n;
    }
    setp(out_, out_ + sizeof(out_));
    return 0;
  }

 private:
  int fd_;
  char in_[1 << 14];
  char out_[1 << 14];
};

} // namespace perfbench
