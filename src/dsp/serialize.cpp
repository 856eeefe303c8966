#include "dsp/serialize.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <stdexcept>

#ifndef _WIN32
#include <fcntl.h>
#include <unistd.h>
#endif

namespace ecocap::dsp::ser {

std::string format_real(Real v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%a", static_cast<double>(v));
  return buf;
}

Real parse_real(std::string_view token) {
  const std::string s(token);
  char* end = nullptr;
  errno = 0;
  const double v = std::strtod(s.c_str(), &end);
  if (end == s.c_str() || *end != '\0') {
    throw std::runtime_error("checkpoint: bad real token '" + s + "'");
  }
  return v;
}

Writer::Writer(std::string_view header) {
  out_.append(header);
  out_.push_back('\n');
}

void Writer::kv(std::string_view key, std::string_view value) {
  out_.append(key);
  out_.push_back(' ');
  out_.append(value);
  out_.push_back('\n');
}

void Writer::u64(std::string_view key, std::uint64_t v) {
  kv(key, std::to_string(v));
}

void Writer::i64(std::string_view key, std::int64_t v) {
  kv(key, std::to_string(v));
}

void Writer::real(std::string_view key, Real v) { kv(key, format_real(v)); }

void Writer::real_vec(std::string_view key, const std::vector<Real>& v) {
  std::string line = std::to_string(v.size());
  for (Real x : v) {
    line.push_back(' ');
    line.append(format_real(x));
  }
  kv(key, line);
}

void Writer::u64_vec(std::string_view key, const std::vector<std::uint64_t>& v) {
  std::string line = std::to_string(v.size());
  for (std::uint64_t x : v) {
    line.push_back(' ');
    line.append(std::to_string(x));
  }
  kv(key, line);
}

void Writer::rng(std::string_view key, const Rng& r) {
  std::ostringstream os;
  r.save(os);
  kv(key, os.str());
}

void Reader::fail(std::string_view key, const std::string& what) {
  throw std::runtime_error("checkpoint: " + what + " at key '" +
                           std::string(key) + "'");
}

Reader::Reader(std::string content, std::string_view expected_header)
    : content_(std::move(content)) {
  const std::string header = next_line("<header>");
  if (header != expected_header) {
    throw std::runtime_error("checkpoint: header mismatch (got '" + header +
                             "', want '" + std::string(expected_header) + "')");
  }
}

std::string Reader::next_line(std::string_view key) {
  if (pos_ >= content_.size()) fail(key, "unexpected end of file");
  const std::size_t nl = content_.find('\n', pos_);
  if (nl == std::string::npos) fail(key, "truncated line");
  std::string line = content_.substr(pos_, nl - pos_);
  pos_ = nl + 1;
  return line;
}

std::string Reader::kv(std::string_view key) {
  const std::string line = next_line(key);
  const std::size_t sp = line.find(' ');
  const std::string got = line.substr(0, sp);
  if (got != key) fail(key, "key mismatch (got '" + got + "')");
  return sp == std::string::npos ? std::string() : line.substr(sp + 1);
}

std::uint64_t Reader::u64(std::string_view key) {
  const std::string v = kv(key);
  // strtoull would accept (and wrap) a sign or skip leading blanks.
  if (v.empty() || v[0] < '0' || v[0] > '9') {
    fail(key, "bad unsigned integer '" + v + "'");
  }
  char* end = nullptr;
  errno = 0;
  const std::uint64_t x = std::strtoull(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE) {
    fail(key, "bad unsigned integer '" + v + "'");
  }
  return x;
}

std::int64_t Reader::i64(std::string_view key) {
  const std::string v = kv(key);
  char* end = nullptr;
  errno = 0;
  const std::int64_t x = std::strtoll(v.c_str(), &end, 10);
  if (end == v.c_str() || *end != '\0' || errno == ERANGE) {
    fail(key, "bad integer '" + v + "'");
  }
  return x;
}

Real Reader::real(std::string_view key) { return parse_real(kv(key)); }

std::vector<Real> Reader::real_vec(std::string_view key) {
  std::istringstream is(kv(key));
  std::size_t n = 0;
  if (!(is >> n)) fail(key, "bad vector length");
  std::vector<Real> v;
  v.reserve(n);
  std::string tok;
  for (std::size_t i = 0; i < n; ++i) {
    if (!(is >> tok)) fail(key, "short vector");
    v.push_back(parse_real(tok));
  }
  return v;
}

std::vector<std::uint64_t> Reader::u64_vec(std::string_view key) {
  std::istringstream is(kv(key));
  std::size_t n = 0;
  if (!(is >> n)) fail(key, "bad vector length");
  std::vector<std::uint64_t> v;
  v.reserve(n);
  std::uint64_t x = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!(is >> x)) fail(key, "short vector");
    v.push_back(x);
  }
  return v;
}

void Reader::rng(std::string_view key, Rng& r) {
  std::istringstream is(kv(key));
  r.load(is);
  if (is.fail()) fail(key, "bad rng state");
}

void Reader::expect(std::string_view lines) {
  while (!lines.empty()) {
    const std::size_t nl = lines.find('\n');
    const std::string_view want = lines.substr(0, nl);
    lines.remove_prefix(nl == std::string_view::npos ? lines.size() : nl + 1);
    const std::string_view key = want.substr(0, want.find(' '));
    const std::string got = next_line(key);
    if (got != want) {
      fail(key, "config fingerprint mismatch (got '" + got + "', want '" +
                    std::string(want) + "')");
    }
  }
}

void Reader::finish() const {
  if (exhausted()) return;
  const std::size_t end = content_.find_first_of(" \n", pos_);
  fail(std::string_view(content_).substr(pos_, end - pos_),
       "trailing record after the end of the checkpoint");
}

namespace {

#ifndef _WIN32
/// fsync the directory containing `path`, so a just-completed rename in it
/// is durable across power loss (POSIX persists the rename only once the
/// directory's own metadata reaches disk).
bool sync_parent_dir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash + 1);
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}
#endif

}  // namespace

bool atomic_write_file(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (f == nullptr) return false;
  bool ok = content.empty() ||
            std::fwrite(content.data(), 1, content.size(), f) == content.size();
  ok = (std::fflush(f) == 0) && ok;
#ifndef _WIN32
  // Force the temp file's *data* to disk before the rename makes it
  // reachable — otherwise power loss can leave `path` pointing at a
  // zero-length or torn file even though the rename itself survived.
  ok = ok && ::fsync(::fileno(f)) == 0;
#endif
  ok = (std::fclose(f) == 0) && ok;
  if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
#ifndef _WIN32
  // And the rename: the directory entry must hit disk too. The data is
  // already safe, so a failure here still leaves a readable file — but we
  // report it, because the durability contract was not met.
  if (!sync_parent_dir(path)) return false;
#endif
  return true;
}

std::optional<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return std::nullopt;
  std::string content;
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    content.append(buf, n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  if (!ok) return std::nullopt;
  return content;
}

Checkpoint::Checkpoint(std::string header, Fingerprint fingerprint)
    : header_(std::move(header)), fingerprint_(std::move(fingerprint)) {}

Writer Checkpoint::begin() const {
  Writer w(header_);
  fingerprint_(w);
  return w;
}

Reader Checkpoint::open(std::string payload) const {
  Reader r(std::move(payload), header_);
  r.expect(std::string_view(begin().payload()).substr(header_.size() + 1));
  return r;
}

void Checkpoint::write(const std::string& path, std::string_view payload) {
  if (!atomic_write_file(path, payload)) {
    throw std::runtime_error("checkpoint: cannot write " + path);
  }
}

std::string Checkpoint::read(const std::string& path) {
  auto content = read_file(path);
  if (!content) throw std::runtime_error("checkpoint: cannot read " + path);
  return std::move(*content);
}

}  // namespace ecocap::dsp::ser
