// Command-line dump processor: reads a MediaWiki XML export (as
// downloaded from Special:Export or produced by our generator), matches
// all structured objects across every page's revisions, and prints one
// summary line per identified object. This is the shape of tool a
// downstream user would run over a real dump.
//
// Usage:
//   ./build/examples/dump_tool <dump.xml>          # process a real dump
//   ./build/examples/dump_tool --demo [out.xml]    # generate a demo dump
//                                                  # (optionally save it)
//                                                  # and process it

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "core/pipeline.h"
#include "wikigen/corpus.h"

namespace {

std::string DemoDumpXml(const char* save_path) {
  somr::wikigen::CorpusConfig config;
  config.focal_type = somr::extract::ObjectType::kTable;
  config.strata_caps = {2, 5};
  config.pages_per_stratum = 2;
  config.min_revisions = 20;
  config.max_revisions = 40;
  config.seed = 99;
  somr::wikigen::GoldCorpus corpus =
      somr::wikigen::GenerateGoldCorpus(config);
  std::string xml =
      somr::xmldump::WriteDump(somr::wikigen::CorpusToDump(corpus));
  if (save_path != nullptr) {
    std::ofstream out(save_path);
    out << xml;
    std::printf("demo dump written to %s (%.1f KiB)\n", save_path,
                static_cast<double>(xml.size()) / 1024.0);
  }
  return xml;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace somr;

  std::string xml;
  if (argc >= 2 && std::strcmp(argv[1], "--demo") == 0) {
    xml = DemoDumpXml(argc >= 3 ? argv[2] : nullptr);
  } else if (argc >= 2) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    xml = buffer.str();
  } else {
    std::fprintf(stderr, "usage: %s <dump.xml> | --demo [out.xml]\n",
                 argv[0]);
    return 2;
  }

  core::Pipeline pipeline;
  std::istringstream in(xml);
  auto results = pipeline.ProcessDumpStream(in);
  if (!results.ok()) {
    std::fprintf(stderr, "failed to parse dump: %s\n",
                 results.status().ToString().c_str());
    return 1;
  }

  for (const core::PageResult& page : *results) {
    std::printf("\n== %s (%zu revisions) ==\n", page.title.c_str(),
                page.revisions.size());
    for (extract::ObjectType type :
         {extract::ObjectType::kTable, extract::ObjectType::kInfobox,
          extract::ObjectType::kList}) {
      const matching::IdentityGraph& graph = page.GraphFor(type);
      for (const auto& object : graph.objects()) {
        int gaps = 0;
        for (size_t v = 1; v < object.versions.size(); ++v) {
          if (object.versions[v].revision >
              object.versions[v - 1].revision + 1) {
            ++gaps;
          }
        }
        std::printf(
            "  %-8s #%-4lld versions %4zu  first r%-4d last r%-4d  "
            "re-insertions %d\n",
            extract::ObjectTypeName(type),
            static_cast<long long>(object.object_id),
            object.versions.size(), object.versions.front().revision,
            object.versions.back().revision, gaps);
      }
    }
  }
  return 0;
}
