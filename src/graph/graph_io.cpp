#include "graph/graph_io.hpp"

#include <fstream>
#include <limits>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "graph/graph_builder.hpp"
#include "util/bytes.hpp"

namespace p2prank::graph {

void save_graph(const WebGraph& g, std::ostream& out) {
  out << "# p2prank crawl v1: " << g.num_pages() << " pages, " << g.num_links()
      << " internal links, " << g.num_external_links() << " external links\n";
  for (PageId p = 0; p < g.num_pages(); ++p) {
    out << "P " << g.url(p) << ' ' << g.site_name(g.site(p)) << '\n';
  }
  for (PageId p = 0; p < g.num_pages(); ++p) {
    for (const PageId q : g.out_links(p)) {
      out << "L " << g.url(p) << ' ' << g.url(q) << '\n';
    }
    if (g.external_out_degree(p) > 0) {
      out << "X " << g.url(p) << ' ' << g.external_out_degree(p) << '\n';
    }
  }
}

void save_graph_file(const WebGraph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_graph_file: cannot open " + path);
  save_graph(g, out);
}

WebGraph load_graph(std::istream& in) {
  GraphBuilder builder;
  // Two passes are avoided by deferring unknown link targets: the builder
  // resolves them at build(). Link sources, however, must already be pages,
  // so we queue L/X records and replay them after all P records.
  struct LinkRec {
    std::string from, to;
    std::size_t line_no;
  };
  struct ExtRec {
    std::string from;
    std::uint32_t count;
    std::size_t line_no;
  };
  std::vector<LinkRec> links;
  std::vector<ExtRec> externals;

  std::string line;
  std::size_t line_no = 0;
  auto fail_at = [](std::size_t at, const std::string& msg) {
    throw std::runtime_error("load_graph: line " + std::to_string(at) + ": " + msg);
  };
  auto fail = [&](const std::string& msg) { fail_at(line_no, msg); };
  auto reject_trailing = [&](std::istringstream& fields) {
    std::string extra;
    if (fields >> extra) fail("trailing token '" + extra + "'");
  };

  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream fields(line);
    std::string tag;
    fields >> tag;
    if (tag == "P") {
      std::string url, site;
      if (!(fields >> url >> site)) fail("malformed P record");
      reject_trailing(fields);
      try {
        builder.add_page(url, site);
      } catch (const std::invalid_argument& e) {
        fail(e.what());
      }
    } else if (tag == "L") {
      LinkRec rec;
      if (!(fields >> rec.from >> rec.to)) fail("malformed L record");
      reject_trailing(fields);
      rec.line_no = line_no;
      links.push_back(std::move(rec));
    } else if (tag == "X") {
      ExtRec rec;
      if (!(fields >> rec.from >> rec.count)) fail("malformed X record");
      reject_trailing(fields);
      // save_graph never emits a zero count; accepting one would break the
      // round-trip (it silently vanishes on the next save).
      if (rec.count == 0) fail("X record with zero count");
      rec.line_no = line_no;
      externals.push_back(std::move(rec));
    } else {
      fail("unknown record tag '" + tag + "'");
    }
  }

  // Replay links now that every page is interned. A link *source* that was
  // never declared is a format error: we would not know its site.
  for (const auto& rec : links) {
    const auto from = builder.find(rec.from);
    if (!from) {
      fail_at(rec.line_no, "link source not declared as page: " + rec.from);
    }
    builder.add_link_to_url(*from, rec.to);
  }
  for (const auto& rec : externals) {
    const auto from = builder.find(rec.from);
    if (!from) {
      fail_at(rec.line_no, "X source not declared as page: " + rec.from);
    }
    builder.add_external_link(*from, rec.count);
  }
  return std::move(builder).build();
}

WebGraph load_graph_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_graph_file: cannot open " + path);
  return load_graph(in);
}

// ---------------------------------------------------------------------------
// Binary CSR format ("p2pgrb1"). Layout, all integers little-endian:
//   char[8]  magic "p2pgrb1\n"
//   u64      num_pages, num_sites, num_links, total_external
//   per site: u32 length + name bytes
//   per page: u32 site id
//   per page: u32 length + url bytes
//   per page: varint external out-count
//   per page: varint out-degree, then delta-varint ascending targets
//             (first target absolute, the rest as gaps from the previous)
// The whole stream is staged through one in-memory buffer in both
// directions: varint decode from a flat byte array is what makes reload
// I/O-bound rather than parse-bound. The bytes go through util/bytes.hpp,
// so a read that cannot complete is this loader's runtime_error.

namespace {

constexpr std::string_view kBinaryMagic("p2pgrb1\n", 8);

/// The value of a read, or the loader's documented error when the stream
/// ends early or holds a varint the writer never emits.
template <class T>
T need(std::optional<T> read) {
  if (!read) {
    throw std::runtime_error(
        "load_graph_binary: truncated stream or malformed varint");
  }
  return *read;
}

std::string read_string(util::ByteReader& r) {
  return std::string(need(r.bytes(need(r.u32()))));
}

/// Reject a header count before anything is sized from it: `count` items
/// of at least `min_bytes` each must fit in the unread bytes.
void expect_fits(const util::ByteReader& r, std::uint64_t count,
                 std::size_t min_bytes, const char* what) {
  if (!r.fits(count, min_bytes)) {
    throw std::runtime_error(std::string("load_graph_binary: ") + what +
                             " count exceeds the stream size");
  }
}

}  // namespace

class GraphBinaryIo {
 public:
  static void save(const WebGraph& g, std::ostream& out) {
    std::vector<std::uint8_t> buf;
    // Reserve a rough upper bound: fixed header + urls/site names + ~2 bytes
    // per link gap + site ids + a few varints per page.
    std::size_t reserve = 40 + 4 * g.num_links() + 16 * g.num_pages();
    for (PageId p = 0; p < g.num_pages(); ++p) reserve += g.url(p).size();
    for (SiteId s = 0; s < g.num_sites(); ++s) reserve += g.site_name(s).size();
    buf.reserve(reserve);

    util::put_bytes(buf, kBinaryMagic);
    util::put_u64(buf, g.num_pages());
    util::put_u64(buf, g.num_sites());
    util::put_u64(buf, g.num_links());
    util::put_u64(buf, g.num_external_links());
    for (SiteId s = 0; s < g.num_sites(); ++s) {
      const std::string& name = g.site_name(s);
      util::put_u32(buf, static_cast<std::uint32_t>(name.size()));
      util::put_bytes(buf, name);
    }
    for (PageId p = 0; p < g.num_pages(); ++p) util::put_u32(buf, g.site(p));
    for (PageId p = 0; p < g.num_pages(); ++p) {
      const std::string& url = g.url(p);
      util::put_u32(buf, static_cast<std::uint32_t>(url.size()));
      util::put_bytes(buf, url);
    }
    for (PageId p = 0; p < g.num_pages(); ++p) {
      util::put_varint(buf, g.external_out_degree(p));
    }
    for (PageId p = 0; p < g.num_pages(); ++p) {
      const auto row = g.out_links(p);
      util::put_varint(buf, row.size());
      PageId prev = 0;
      for (const PageId t : row) {
        util::put_varint(buf, t - prev);
        prev = t;
      }
    }
    out.write(reinterpret_cast<const char*>(buf.data()),
              static_cast<std::streamsize>(buf.size()));
    if (!out) throw std::runtime_error("save_graph_binary: write failed");
  }

  static WebGraph load(std::istream& in) {
    std::ostringstream staging;
    staging << in.rdbuf();
    const std::string bytes = std::move(staging).str();
    util::ByteReader r(std::span(
        reinterpret_cast<const std::uint8_t*>(bytes.data()), bytes.size()));
    if (need(r.bytes(kBinaryMagic.size())) != kBinaryMagic) {
      throw std::runtime_error("load_graph_binary: bad magic");
    }

    const std::uint64_t n = need(r.u64());
    const std::uint64_t num_sites = need(r.u64());
    const std::uint64_t m = need(r.u64());
    const std::uint64_t total_external = need(r.u64());
    if (n >= static_cast<std::uint64_t>(kInvalidPage)) {
      throw std::runtime_error("load_graph_binary: page count out of range");
    }

    // Smallest encodings: a site name is a u32 length, a page at least its
    // u32 site id and u32 url length, a link one varint byte.
    expect_fits(r, num_sites, 4, "site");
    std::vector<std::string> site_names;
    site_names.reserve(num_sites);
    for (std::uint64_t s = 0; s < num_sites; ++s) site_names.push_back(read_string(r));

    expect_fits(r, n, 8, "page");
    std::vector<SiteId> sites(n);
    for (std::uint64_t p = 0; p < n; ++p) {
      sites[p] = need(r.u32());
      if (sites[p] >= num_sites) {
        throw std::runtime_error("load_graph_binary: site id out of range");
      }
    }

    std::vector<std::string> urls;
    urls.reserve(n);
    for (std::uint64_t p = 0; p < n; ++p) urls.push_back(read_string(r));

    WebGraph g;
    g.external_out_.resize(n);
    for (std::uint64_t p = 0; p < n; ++p) {
      const std::uint64_t count = need(r.varint());
      if (count > std::numeric_limits<std::uint32_t>::max()) {
        throw std::runtime_error("load_graph_binary: external count out of range");
      }
      g.external_out_[p] = static_cast<std::uint32_t>(count);
      g.total_external_ += count;
    }
    if (g.total_external_ != total_external) {
      throw std::runtime_error("load_graph_binary: external link total mismatch");
    }

    expect_fits(r, m, 1, "link");
    g.out_offsets_.assign(n + 1, 0);
    g.out_targets_.reserve(m);
    for (std::uint64_t p = 0; p < n; ++p) {
      const std::uint64_t degree = need(r.varint());
      PageId prev = 0;
      for (std::uint64_t k = 0; k < degree; ++k) {
        // Compared before adding, so a huge gap cannot wrap below n.
        const std::uint64_t gap = need(r.varint());
        if (gap >= n - prev) {
          throw std::runtime_error("load_graph_binary: link target out of range");
        }
        prev += static_cast<PageId>(gap);
        g.out_targets_.push_back(prev);
      }
      g.out_offsets_[p + 1] = g.out_targets_.size();
    }
    if (g.out_targets_.size() != m) {
      throw std::runtime_error("load_graph_binary: link count mismatch");
    }
    if (!r.at_end()) {
      throw std::runtime_error("load_graph_binary: trailing bytes");
    }

    // The out rows are already canonical; derive the in-rows as the builder
    // does.
    g.derive_in_rows();
    g.table_ = WebGraph::make_table(std::move(urls), std::move(site_names),
                                    std::move(sites));
    return g;
  }
};

void save_graph_binary(const WebGraph& g, std::ostream& out) {
  GraphBinaryIo::save(g, out);
}

void save_graph_binary_file(const WebGraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("save_graph_binary_file: cannot open " + path);
  save_graph_binary(g, out);
}

WebGraph load_graph_binary(std::istream& in) { return GraphBinaryIo::load(in); }

WebGraph load_graph_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_graph_binary_file: cannot open " + path);
  return load_graph_binary(in);
}

}  // namespace p2prank::graph
