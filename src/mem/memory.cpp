#include "mem/memory.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <sstream>
#include <stdexcept>
#include <string>

namespace sch {

Memory::Memory() {
  std::fill(std::begin(pages_), std::end(pages_), const_cast<u8*>(kZeroPage));
}

Memory::~Memory() {
  for (u8* page : pages_) {
    if (page != kZeroPage) delete[] page;
  }
}

void Memory::throw_bus_error(Addr addr) {
  std::ostringstream os;
  os << "bus error: access to unmapped address 0x" << std::hex << addr;
  throw BusError(os.str());
}

u8* Memory::allocate(u32 slot) {
  pages_[slot] = new u8[kPageSize]();
  return pages_[slot];
}

u64 Memory::load_split(Addr addr, u32 bytes) const {
  u64 v = 0;
  for (u32 i = 0; i < bytes; ++i) v |= load(addr + i, 1) << (8 * i);
  return v;
}

void Memory::store_split(Addr addr, u64 value, u32 bytes) {
  for (u32 i = 0; i < bytes; ++i) store(addr + i, value >> (8 * i), 1);
}

template <typename Fn>
void Memory::for_each_page(Addr base, u32 bytes, Fn&& fn) const {
  if (!valid(base, bytes)) throw_bus_error(base);
  for (u32 done = 0; done < bytes;) {
    const Addr addr = base + done;
    const u32 off = addr & kPageMask;
    const u32 len = std::min(kPageSize - off, bytes - done);
    fn(slot_of(addr, len), off, len, done);
    done += len;
  }
}

double Memory::load_f64(Addr addr) const {
  const u64 b = load(addr, 8);
  double v;
  std::memcpy(&v, &b, 8);
  return v;
}

float Memory::load_f32(Addr addr) const {
  const u64 b = load(addr, 4);
  const u32 lo = static_cast<u32>(b);
  float v;
  std::memcpy(&v, &lo, 4);
  return v;
}

void Memory::store_f64(Addr addr, double v) {
  u64 b;
  std::memcpy(&b, &v, 8);
  store(addr, b, 8);
}

void Memory::store_f32(Addr addr, float v) {
  u32 b;
  std::memcpy(&b, &v, 4);
  store(addr, b, 4);
}

void Memory::load_image(Addr base, std::span<const u8> bytes) {
  if (bytes.empty()) return;
  for_each_page(base, static_cast<u32>(bytes.size()),
                [&](u32 slot, u32 off, u32 len, u32 done) {
                  u8* page = pages_[slot];
                  if (page == kZeroPage) page = allocate(slot);
                  std::memcpy(page + off, bytes.data() + done, len);
                });
}

std::vector<u8> Memory::read_block(Addr base, u32 bytes) const {
  std::vector<u8> out(bytes);
  for_each_page(base, bytes, [&](u32 slot, u32 off, u32 len, u32 done) {
    std::memcpy(out.data() + done, pages_[slot] + off, len);
  });
  return out;
}

std::vector<double> Memory::read_f64_block(Addr base, u32 count) const {
  std::vector<double> out(count);
  for (u32 i = 0; i < count; ++i) out[i] = load_f64(base + 8 * i);
  return out;
}

Memory::WordDiff Memory::diff_words(const Memory& other, Addr base,
                                    u32 bytes) const {
  assert(base % 8 == 0);
  WordDiff d;
  for_each_page(base, bytes, [&](u32 slot, u32 off, u32 len, u32 done) {
    // Distinct memories share only the zero page, so equal pointers mean
    // neither side wrote this page.
    if (pages_[slot] == other.pages_[slot]) return;
    const u8* a = pages_[slot] + off;
    const u8* b = other.pages_[slot] + off;
    if (std::memcmp(a, b, len) == 0) return;
    for (u32 w = 0; w < len; w += 8) {
      if (std::memcmp(a + w, b + w, std::min(8u, len - w)) != 0) {
        if (d.words == 0) d.first = base + done + w;
        ++d.words;
      }
    }
  });
  return d;
}

} // namespace sch
