// Minimal iostreams adapter over a POSIX file descriptor, used by the serve
// layer to run NDJSON sessions over sockets (the TCP listener) with the same
// Server::serve(istream&, ostream&) entry point that stdin/stdout sessions
// use. Unix-only; the serve front-end that needs it is compiled out
// elsewhere.
#pragma once

#if defined(__unix__) || defined(__APPLE__)
#define SCH_SERVE_HAVE_FDSTREAM 1

#include <unistd.h>

#include <cerrno>
#include <istream>
#include <ostream>
#include <streambuf>

namespace sch::serve {

class FdStreamBuf : public std::streambuf {
 public:
  /// Borrows `fd` (the caller closes it after this buffer's final flush).
  /// One FdStreamBuf serves one direction; attach it to either an istream
  /// or an ostream, not both.
  explicit FdStreamBuf(int fd) : fd_(fd) {
    setg(in_, in_, in_);
    setp(out_, out_ + sizeof(out_));
  }
  ~FdStreamBuf() override { sync(); }
  FdStreamBuf(const FdStreamBuf&) = delete;
  FdStreamBuf& operator=(const FdStreamBuf&) = delete;

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    ssize_t n;
    do {
      n = ::read(fd_, in_, sizeof(in_));
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return traits_type::eof();
    setg(in_, in_, in_ + n);
    return traits_type::to_int_type(*gptr());
  }

  int_type overflow(int_type ch) override {
    if (flush_out() != 0) return traits_type::eof();
    if (!traits_type::eq_int_type(ch, traits_type::eof())) {
      *pptr() = traits_type::to_char_type(ch);
      pbump(1);
    }
    return traits_type::not_eof(ch);
  }

  int sync() override { return flush_out(); }

 private:
  int flush_out() {
    const char* p = pbase();
    while (p < pptr()) {
      const ssize_t n = ::write(fd_, p, static_cast<size_t>(pptr() - p));
      if (n < 0) {
        if (errno == EINTR) continue;
        return -1;
      }
      p += n;
    }
    setp(out_, out_ + sizeof(out_));
    return 0;
  }

  int fd_;
  char in_[8192];
  char out_[8192];
};

} // namespace sch::serve

#endif // unix
