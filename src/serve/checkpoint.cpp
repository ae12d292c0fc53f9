#include "serve/checkpoint.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <span>
#include <system_error>
#include <type_traits>

#include "common/error.hpp"
#include "obs/log.hpp"
#include "tile/tile_codec.hpp"

namespace gsx::serve {

static_assert(std::endian::native == std::endian::little,
              "gsx-ckpt-v1 assumes a little-endian host");

namespace {

constexpr std::array<char, 8> kMagic = {'G', 'S', 'X', 'C', 'K', 'P', 'T', '1'};
constexpr std::uint32_t kVersion = 1;

constexpr std::uint32_t fourcc(const char (&s)[5]) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(s[0])) |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[1])) << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[2])) << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(s[3])) << 24;
}

constexpr std::uint32_t kTagMeta = fourcc("META");
constexpr std::uint32_t kTagLocs = fourcc("LOCS");
constexpr std::uint32_t kTagObsv = fourcc("OBSV");
constexpr std::uint32_t kTagFact = fourcc("FACT");
constexpr std::uint32_t kTagFitp = fourcc("FITP");

// --- byte-cursor helpers ---------------------------------------------------

using Bytes = std::vector<std::uint8_t>;

template <typename T>
void put(Bytes& out, T v) {
  static_assert(std::is_trivially_copyable_v<T>);
  const auto base = out.size();
  out.resize(base + sizeof(v));
  std::memcpy(out.data() + base, &v, sizeof(v));
}

template <typename T>
T get(std::span<const std::uint8_t> in, std::size_t& off) {
  static_assert(std::is_trivially_copyable_v<T>);
  GSX_REQUIRE(off + sizeof(T) <= in.size(), "checkpoint: truncated section payload");
  T v;
  std::memcpy(&v, in.data() + off, sizeof(v));
  off += sizeof(v);
  return v;
}

void put_string(Bytes& out, const std::string& s) {
  put<std::uint32_t>(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

std::string get_string(std::span<const std::uint8_t> in, std::size_t& off) {
  const auto len = get<std::uint32_t>(in, off);
  GSX_REQUIRE(off + len <= in.size(), "checkpoint: truncated string");
  std::string s(reinterpret_cast<const char*>(in.data() + off), len);
  off += len;
  return s;
}

void put_doubles(Bytes& out, std::span<const double> v) {
  put<std::uint64_t>(out, v.size());
  const auto base = out.size();
  out.resize(base + v.size() * sizeof(double));
  if (!v.empty()) std::memcpy(out.data() + base, v.data(), v.size() * sizeof(double));
}

std::vector<double> get_doubles(std::span<const std::uint8_t> in, std::size_t& off) {
  const auto n = get<std::uint64_t>(in, off);
  GSX_REQUIRE(n <= (in.size() - off) / sizeof(double),
              "checkpoint: truncated double array");
  std::vector<double> v(n);
  if (n > 0) std::memcpy(v.data(), in.data() + off, n * sizeof(double));
  off += n * sizeof(double);
  return v;
}

// --- ModelConfig <-> bytes -------------------------------------------------
// Only the fields that shape the persisted factor and its prediction
// semantics are stored; runtime knobs (workers, scheduler, optimizer
// options) are the loader's choice.

void put_config(Bytes& out, const core::ModelConfig& c) {
  put<std::uint8_t>(out, static_cast<std::uint8_t>(c.variant));
  put<std::uint64_t>(out, c.tile_size);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(c.mp_rule));
  put<std::uint64_t>(out, c.band.fp64_band);
  put<std::uint64_t>(out, c.band.fp32_band);
  put<double>(out, c.eps_target);
  put<std::uint8_t>(out, c.allow_fp16 ? 1 : 0);
  put<std::uint8_t>(out, c.allow_bf16 ? 1 : 0);
  put<double>(out, c.tlr_tol);
  put<std::uint8_t>(out, static_cast<std::uint8_t>(c.compression));
  put<std::uint8_t>(out, static_cast<std::uint8_t>(c.rounding));
  put<std::uint8_t>(out, c.auto_band ? 1 : 0);
  put<std::uint64_t>(out, c.band_size);
  put<double>(out, c.fluctuation);
  put<std::uint8_t>(out, c.lr_fp32 ? 1 : 0);
}

/// One enum byte, rejected past `last`: the file may come from a client.
template <typename E>
E get_enum(std::span<const std::uint8_t> in, std::size_t& off, E last, const char* what) {
  const auto v = get<std::uint8_t>(in, off);
  GSX_REQUIRE(v <= static_cast<std::uint8_t>(last),
              std::string("checkpoint: ") + what + " byte " + std::to_string(v) +
                  " is out of range");
  return static_cast<E>(v);
}

core::ModelConfig get_config(std::span<const std::uint8_t> in, std::size_t& off) {
  core::ModelConfig c;
  c.variant = get_enum(in, off, core::ComputeVariant::MPDenseTLR, "compute variant");
  c.tile_size = get<std::uint64_t>(in, off);
  c.mp_rule =
      get_enum(in, off, cholesky::PrecisionRule::AdaptiveFrobenius, "precision rule");
  c.band.fp64_band = get<std::uint64_t>(in, off);
  c.band.fp32_band = get<std::uint64_t>(in, off);
  c.eps_target = get<double>(in, off);
  c.allow_fp16 = get<std::uint8_t>(in, off) != 0;
  c.allow_bf16 = get<std::uint8_t>(in, off) != 0;
  c.tlr_tol = get<double>(in, off);
  c.compression = get_enum(in, off, tlr::CompressionMethod::ACA, "compression method");
  c.rounding = get_enum(in, off, tlr::RoundingMethod::Rrqr, "rounding method");
  c.auto_band = get<std::uint8_t>(in, off) != 0;
  c.band_size = get<std::uint64_t>(in, off);
  c.fluctuation = get<double>(in, off);
  c.lr_fp32 = get<std::uint8_t>(in, off) != 0;
  return c;
}

// --- sections --------------------------------------------------------------

struct Section {
  std::uint32_t tag = 0;
  Bytes payload;
};

void write_file(const std::string& path, const std::vector<Section>& sections) {
  Bytes out;
  out.insert(out.end(), kMagic.begin(), kMagic.end());
  put<std::uint32_t>(out, kVersion);
  put<std::uint32_t>(out, static_cast<std::uint32_t>(sections.size()));
  for (const Section& s : sections) {
    put<std::uint32_t>(out, s.tag);
    put<std::uint32_t>(out, 0);
    put<std::uint64_t>(out, s.payload.size());
    put<std::uint32_t>(out, tile::crc32(s.payload.data(), s.payload.size()));
    out.insert(out.end(), s.payload.begin(), s.payload.end());
  }

  // Atomic publish: a reader never sees a half-written checkpoint, and a
  // crash mid-save leaves any previous checkpoint intact.
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  GSX_REQUIRE(f != nullptr, "checkpoint: cannot open " + tmp + " for writing");
  const std::size_t written = std::fwrite(out.data(), 1, out.size(), f);
  const bool flushed = std::fclose(f) == 0 && written == out.size();
  if (!flushed || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw InvalidArgument("checkpoint: failed to write " + path);
  }
}

Bytes read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  GSX_REQUIRE(f != nullptr, "checkpoint: cannot open " + path);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fseek(f, 0, SEEK_SET);
  Bytes data(size > 0 ? static_cast<std::size_t>(size) : 0);
  const std::size_t got = data.empty() ? 0 : std::fread(data.data(), 1, data.size(), f);
  std::fclose(f);
  GSX_REQUIRE(got == data.size(), "checkpoint: short read from " + path);
  return data;
}

std::vector<Section> parse_sections(const Bytes& data, const std::string& path,
                                    bool verify_crc) {
  std::span<const std::uint8_t> in(data);
  std::size_t off = 0;
  GSX_REQUIRE(in.size() >= kMagic.size() + 8 &&
                  std::memcmp(in.data(), kMagic.data(), kMagic.size()) == 0,
              "checkpoint: " + path + " is not a gsx-ckpt file (bad magic)");
  off = kMagic.size();
  const auto version = get<std::uint32_t>(in, off);
  GSX_REQUIRE(version == kVersion,
              "checkpoint: " + path + " has unsupported version " +
                  std::to_string(version));
  const auto count = get<std::uint32_t>(in, off);
  GSX_REQUIRE(count <= 64, "checkpoint: implausible section count");
  std::vector<Section> sections(count);
  for (Section& s : sections) {
    s.tag = get<std::uint32_t>(in, off);
    (void)get<std::uint32_t>(in, off);  // reserved
    const auto bytes = get<std::uint64_t>(in, off);
    const auto crc = get<std::uint32_t>(in, off);
    GSX_REQUIRE(bytes <= in.size() - off,
                "checkpoint: " + path + " truncated mid-section");
    s.payload.assign(in.begin() + static_cast<std::ptrdiff_t>(off),
                     in.begin() + static_cast<std::ptrdiff_t>(off + bytes));
    off += bytes;
    if (verify_crc) {
      const std::uint32_t actual = tile::crc32(s.payload.data(), s.payload.size());
      GSX_REQUIRE(actual == crc,
                  "checkpoint: " + path + " CRC mismatch (stored " +
                      std::to_string(crc) + ", computed " + std::to_string(actual) +
                      ") — file corrupted");
    }
  }
  return sections;
}

const Section& find_section(const std::vector<Section>& sections, std::uint32_t tag,
                            const std::string& path) {
  for (const Section& s : sections)
    if (s.tag == tag) return s;
  throw InvalidArgument("checkpoint: " + path + " is missing a required section");
}

bool has_section(const std::vector<Section>& sections, std::uint32_t tag) {
  for (const Section& s : sections)
    if (s.tag == tag) return true;
  return false;
}

}  // namespace

void save_model_checkpoint(const std::string& path, const ModelCheckpoint& ckpt) {
  GSX_REQUIRE(ckpt.train_locs.size() == ckpt.z_train.size() &&
                  ckpt.factor.n() == ckpt.train_locs.size(),
              "save_model_checkpoint: inconsistent training data / factor");
  std::vector<Section> sections(4);

  sections[0].tag = kTagMeta;
  put_string(sections[0].payload, ckpt.kernel);
  put_doubles(sections[0].payload, ckpt.theta);
  put_config(sections[0].payload, ckpt.config);

  sections[1].tag = kTagLocs;
  put<std::uint64_t>(sections[1].payload, ckpt.train_locs.size());
  for (const geostat::Location& l : ckpt.train_locs) {
    put<double>(sections[1].payload, l.x);
    put<double>(sections[1].payload, l.y);
    put<double>(sections[1].payload, l.t);
  }

  sections[2].tag = kTagObsv;
  put_doubles(sections[2].payload, ckpt.z_train);

  sections[3].tag = kTagFact;
  Bytes& fact = sections[3].payload;
  put<std::uint64_t>(fact, ckpt.factor.n());
  put<std::uint64_t>(fact, ckpt.factor.tile_size());
  for (std::size_t j = 0; j < ckpt.factor.nt(); ++j)
    for (std::size_t i = j; i < ckpt.factor.nt(); ++i)
      tile::encode_tile(ckpt.factor.at(i, j), fact);

  write_file(path, sections);
  obs::log_info("serve", "model checkpoint saved",
                {obs::lf("path", path), obs::lf("kernel", ckpt.kernel),
                 obs::lf("n", static_cast<std::uint64_t>(ckpt.train_locs.size()))});
}

ModelCheckpoint load_model_checkpoint(const std::string& path) {
  const Bytes data = read_file(path);
  const std::vector<Section> sections = parse_sections(data, path, /*verify_crc=*/true);

  ModelCheckpoint ckpt;
  {
    const Section& s = find_section(sections, kTagMeta, path);
    std::span<const std::uint8_t> in(s.payload);
    std::size_t off = 0;
    ckpt.kernel = get_string(in, off);
    ckpt.theta = get_doubles(in, off);
    ckpt.config = get_config(in, off);
  }
  {
    const Section& s = find_section(sections, kTagLocs, path);
    std::span<const std::uint8_t> in(s.payload);
    std::size_t off = 0;
    const auto n = get<std::uint64_t>(in, off);
    GSX_REQUIRE(n >= 1 && n * 3 * sizeof(double) <= in.size() - off,
                "checkpoint: LOCS section truncated");
    ckpt.train_locs.resize(n);
    for (geostat::Location& l : ckpt.train_locs) {
      l.x = get<double>(in, off);
      l.y = get<double>(in, off);
      l.t = get<double>(in, off);
    }
  }
  {
    const Section& s = find_section(sections, kTagObsv, path);
    std::span<const std::uint8_t> in(s.payload);
    std::size_t off = 0;
    ckpt.z_train = get_doubles(in, off);
  }
  {
    const Section& s = find_section(sections, kTagFact, path);
    std::span<const std::uint8_t> in(s.payload);
    std::size_t off = 0;
    const auto n = get<std::uint64_t>(in, off);
    const auto ts = get<std::uint64_t>(in, off);
    GSX_REQUIRE(n == ckpt.train_locs.size() && ts >= 1,
                "checkpoint: factor extent does not match training data");
    ckpt.factor = tile::SymTileMatrix(n, ts);
    for (std::size_t j = 0; j < ckpt.factor.nt(); ++j)
      for (std::size_t i = j; i < ckpt.factor.nt(); ++i) {
        tile::Tile t = tile::decode_tile(in, off);
        GSX_REQUIRE(t.rows() == ckpt.factor.tile_dim(i) &&
                        t.cols() == ckpt.factor.tile_dim(j),
                    "checkpoint: tile extents disagree with factor layout");
        ckpt.factor.at(i, j) = std::move(t);
      }
    GSX_REQUIRE(off == in.size(), "checkpoint: trailing bytes in FACT section");
  }
  GSX_REQUIRE(ckpt.z_train.size() == ckpt.train_locs.size(),
              "checkpoint: observation count does not match locations");
  return ckpt;
}

void save_fit_checkpoint(const std::string& path, const FitCheckpoint& ckpt) {
  std::vector<Section> sections(2);
  sections[0].tag = kTagMeta;
  put_string(sections[0].payload, ckpt.kernel);
  put_doubles(sections[0].payload, ckpt.theta_best);
  put_config(sections[0].payload, core::ModelConfig{});

  sections[1].tag = kTagFitp;
  put_doubles(sections[1].payload, ckpt.theta_best);
  put<double>(sections[1].payload, ckpt.loglik_best);
  put<std::uint64_t>(sections[1].payload, ckpt.evaluations);
  write_file(path, sections);
}

FitCheckpoint load_fit_checkpoint(const std::string& path) {
  const Bytes data = read_file(path);
  const std::vector<Section> sections = parse_sections(data, path, /*verify_crc=*/true);
  FitCheckpoint ckpt;
  {
    const Section& s = find_section(sections, kTagMeta, path);
    std::span<const std::uint8_t> in(s.payload);
    std::size_t off = 0;
    ckpt.kernel = get_string(in, off);
  }
  {
    const Section& s = find_section(sections, kTagFitp, path);
    std::span<const std::uint8_t> in(s.payload);
    std::size_t off = 0;
    ckpt.theta_best = get_doubles(in, off);
    ckpt.loglik_best = get<double>(in, off);
    ckpt.evaluations = get<std::uint64_t>(in, off);
  }
  return ckpt;
}

CheckpointKind probe_checkpoint(const std::string& path) {
  const Bytes data = read_file(path);
  const std::vector<Section> sections = parse_sections(data, path, /*verify_crc=*/false);
  if (has_section(sections, kTagFact)) return CheckpointKind::Model;
  if (has_section(sections, kTagFitp)) return CheckpointKind::FitProgress;
  throw InvalidArgument("checkpoint: " + path + " has neither FACT nor FITP section");
}

bool checkpoint_valid(const std::string& path) noexcept {
  try {
    const Bytes data = read_file(path);
    const std::vector<Section> sections =
        parse_sections(data, path, /*verify_crc=*/true);
    return has_section(sections, kTagFact) || has_section(sections, kTagFitp);
  } catch (...) {
    return false;
  }
}

std::string resolve_store_checkpoint(const std::string& store_dir,
                                     const std::string& model) {
  GSX_REQUIRE(!store_dir.empty(), "resolve_store_checkpoint: empty store dir");
  namespace fs = std::filesystem;
  std::error_code ec;

  const fs::path flat = fs::path(store_dir) / (model + ".ckpt");
  if (fs::is_regular_file(flat, ec) && checkpoint_valid(flat.string()))
    return flat.string();

  const fs::path dir = fs::path(store_dir) / model;
  if (fs::is_directory(dir, ec)) {
    std::vector<std::string> versions;
    for (const auto& entry : fs::directory_iterator(dir, ec)) {
      if (!entry.is_regular_file(ec)) continue;
      if (entry.path().extension() != ".ckpt") continue;  // skips .tmp partials
      versions.push_back(entry.path().string());
    }
    // Lexicographically last valid file is "newest": version file names are
    // sortable by construction (v0001.ckpt, 20260809T1200.ckpt, ...). A
    // corrupt or half-copied newest version falls back to its predecessor
    // instead of taking the replica down.
    std::sort(versions.begin(), versions.end());
    for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
      if (checkpoint_valid(*it)) return *it;
      obs::log_warn("serve", "skipping invalid checkpoint in store",
                    {obs::lf("path", *it)});
    }
  }
  throw InvalidArgument("checkpoint store " + store_dir +
                        " has no valid checkpoint for model \"" + model + "\"");
}

}  // namespace gsx::serve
