// Built-in XML functions, with a self-contained micro-XML substrate.
//
// The paper's Listing 2 example is MySQL's UpdateXML; its bug table includes
// XML use-after-free and NPD entries. The substrate is a strict well-formed
// tag parser with nesting-depth accounting (deep <a><a><a>… documents are a
// Pattern 1.4 / 3.1 target) plus a '/a/b[1]'-style XPath subset.
#include <memory>
#include <vector>

#include "src/sqlfunc/function.h"
#include "src/util/str_util.h"

namespace soft {
namespace {

struct XmlNode {
  std::string tag;
  std::string text;  // concatenated character data
  std::vector<std::unique_ptr<XmlNode>> children;

  std::string Serialize() const {
    std::string out = "<" + tag + ">";
    out += text;
    for (const auto& child : children) {
      out += child->Serialize();
    }
    out += "</" + tag + ">";
    return out;
  }
};

constexpr int kMaxXmlDepth = 512;

class XmlParser {
 public:
  explicit XmlParser(std::string_view text) : text_(text) {}

  Result<std::unique_ptr<XmlNode>> Parse() {
    SkipSpace();
    SOFT_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> root, ParseElement(1));
    SkipSpace();
    if (pos_ != text_.size()) {
      return InvalidArgument("trailing content after XML root element");
    }
    return root;
  }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && IsAsciiSpace(text_[pos_])) {
      ++pos_;
    }
  }

  Result<std::unique_ptr<XmlNode>> ParseElement(int depth) {
    if (depth > kMaxXmlDepth) {
      return ResourceExhausted("XML nesting depth limit exceeded");
    }
    if (pos_ >= text_.size() || text_[pos_] != '<') {
      return InvalidArgument("expected '<' in XML");
    }
    ++pos_;
    auto node = std::make_unique<XmlNode>();
    while (pos_ < text_.size() && text_[pos_] != '>' && text_[pos_] != '/' &&
           !IsAsciiSpace(text_[pos_])) {
      node->tag.push_back(text_[pos_]);
      ++pos_;
    }
    if (node->tag.empty()) {
      return InvalidArgument("empty XML tag name");
    }
    SkipSpace();
    // Self-closing form <a/>.
    if (pos_ + 1 < text_.size() && text_[pos_] == '/' && text_[pos_ + 1] == '>') {
      pos_ += 2;
      return node;
    }
    if (pos_ >= text_.size() || text_[pos_] != '>') {
      return InvalidArgument("malformed XML start tag");
    }
    ++pos_;
    // Content: text and child elements until the matching close tag.
    for (;;) {
      if (pos_ >= text_.size()) {
        return InvalidArgument("unterminated XML element <" + node->tag + ">");
      }
      if (text_[pos_] == '<') {
        if (pos_ + 1 < text_.size() && text_[pos_ + 1] == '/') {
          pos_ += 2;
          std::string close;
          while (pos_ < text_.size() && text_[pos_] != '>') {
            close.push_back(text_[pos_]);
            ++pos_;
          }
          if (pos_ >= text_.size()) {
            return InvalidArgument("unterminated XML close tag");
          }
          ++pos_;
          if (close != node->tag) {
            return InvalidArgument("mismatched XML close tag </" + close + ">");
          }
          return node;
        }
        SOFT_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> child, ParseElement(depth + 1));
        node->children.push_back(std::move(child));
      } else {
        node->text.push_back(text_[pos_]);
        ++pos_;
      }
    }
  }

  std::string_view text_;
  size_t pos_ = 0;
};

// Where a path leads in a document: the node it names (nullptr when it does
// not resolve), that node's parent, and the number of steps.
struct XPathTarget {
  XmlNode* node = nullptr;
  XmlNode* parent = nullptr;
  size_t steps = 0;
};

// Path subset: /tag/tag[index]/... (1-based indexes); the first step must
// match the root tag. Validates the whole path and resolves it in the same
// pass, so a malformed step is an error even past a step that failed to
// resolve. Tags stay views into the path, and a step below a missed one is
// only validated.
Result<XPathTarget> ResolveXPath(XmlNode* root, std::string_view path) {
  if (path.empty() || path[0] != '/') {
    return InvalidArgument("XPath must start with '/'");
  }
  XPathTarget target;
  size_t pos = 1;
  while (pos < path.size()) {
    const size_t tag_start = pos;
    while (pos < path.size() && path[pos] != '/' && path[pos] != '[') {
      ++pos;
    }
    const std::string_view tag = path.substr(tag_start, pos - tag_start);
    if (tag.empty()) {
      return InvalidArgument("empty step in XPath");
    }
    // An index above INT_MAX names no node, like index 0.
    int index = 1;
    if (pos < path.size() && path[pos] == '[') {
      const size_t close = path.find(']', pos);
      if (close == std::string_view::npos) {
        return InvalidArgument("unterminated index in XPath");
      }
      index = 0;
      bool overflow = false;
      for (size_t i = pos + 1; i < close; ++i) {
        if (!IsAsciiDigit(path[i])) {
          return InvalidArgument("non-numeric index in XPath");
        }
        overflow = overflow || __builtin_mul_overflow(index, 10, &index) ||
                   __builtin_add_overflow(index, path[i] - '0', &index);
      }
      if (overflow) {
        index = 0;
      }
      pos = close + 1;
    }
    ++target.steps;
    if (target.steps == 1) {
      target.node = root != nullptr && root->tag == tag && index == 1 ? root : nullptr;
    } else if (target.node != nullptr) {
      target.parent = target.node;
      target.node = nullptr;
      int seen = 0;
      for (const auto& child : target.parent->children) {
        if (child->tag == tag && ++seen == index) {
          target.node = child.get();
          break;
        }
      }
    }
    if (pos < path.size()) {
      if (path[pos] != '/') {
        return InvalidArgument("malformed XPath");
      }
      ++pos;
    }
  }
  return target;
}

Result<Value> FnExtractValue(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view xml, ctx.ArgString(args[0]));
  SOFT_ASSIGN_OR_RETURN(std::string_view path, ctx.ArgString(args[1]));
  XmlParser parser(xml);
  const Result<std::unique_ptr<XmlNode>> doc = parser.Parse();
  if (!doc.ok()) {
    ctx.Cover(1);
    return doc.status().code() == StatusCode::kResourceExhausted ? doc.status()
                                                                 : Result<Value>(Value::Null());
  }
  SOFT_ASSIGN_OR_RETURN(XPathTarget target, ResolveXPath(doc->get(), path));
  if (target.node == nullptr) {
    ctx.Cover(2);
    return Value::Str("");
  }
  return Value::Str(target.node->text);
}

Result<Value> FnUpdateXml(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view xml, ctx.ArgString(args[0]));
  SOFT_ASSIGN_OR_RETURN(std::string_view path, ctx.ArgString(args[1]));
  SOFT_ASSIGN_OR_RETURN(std::string_view replacement, ctx.ArgString(args[2]));
  XmlParser parser(xml);
  Result<std::unique_ptr<XmlNode>> doc = parser.Parse();
  if (!doc.ok()) {
    ctx.Cover(1);
    return doc.status().code() == StatusCode::kResourceExhausted ? doc.status()
                                                                 : Result<Value>(Value::Null());
  }
  SOFT_ASSIGN_OR_RETURN(XPathTarget target, ResolveXPath(doc->get(), path));
  if (target.node == nullptr) {
    ctx.Cover(2);
    return Value::Str(std::string(xml));  // MySQL: path miss returns the original
  }
  // Parse the replacement fragment; it must itself be well-formed.
  XmlParser repl_parser(replacement);
  Result<std::unique_ptr<XmlNode>> fragment = repl_parser.Parse();
  if (!fragment.ok()) {
    ctx.Cover(3);
    return Value::Str(std::string(xml));
  }
  if (target.steps == 1) {
    ctx.Cover(4);
    return Value::Str((*fragment)->Serialize());  // replaced the root
  }
  // Replace within the parent.
  for (auto& child : target.parent->children) {
    if (child.get() == target.node) {
      child = std::move(*fragment);
      break;
    }
  }
  return Value::Str((*doc)->Serialize());
}

Result<Value> FnXmlValid(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view xml, ctx.ArgString(args[0]));
  XmlParser parser(xml);
  const Result<std::unique_ptr<XmlNode>> doc = parser.Parse();
  if (!doc.ok() && doc.status().code() == StatusCode::kResourceExhausted) {
    ctx.Cover(1);
    return doc.status();
  }
  return Value::Boolean(doc.ok());
}

Result<Value> FnXmlRoot(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view xml, ctx.ArgString(args[0]));
  XmlParser parser(xml);
  SOFT_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> doc, parser.Parse());
  return Value::Str(doc->tag);
}

Result<Value> FnXmlElementCount(FunctionContext& ctx, const ValueList& args) {
  SOFT_ASSIGN_OR_RETURN(std::string_view xml, ctx.ArgString(args[0]));
  XmlParser parser(xml);
  SOFT_ASSIGN_OR_RETURN(std::unique_ptr<XmlNode> doc, parser.Parse());
  int64_t count = 0;
  std::vector<const XmlNode*> stack = {doc.get()};
  while (!stack.empty()) {
    const XmlNode* node = stack.back();
    stack.pop_back();
    ++count;
    for (const auto& child : node->children) {
      stack.push_back(child.get());
    }
  }
  return Value::Int(count);
}

void Reg(FunctionRegistry& r, const char* name, int min_args, int max_args, ScalarFunction fn,
         const char* doc, const char* example) {
  FunctionDef def;
  def.name = name;
  def.type = FunctionType::kXml;
  def.min_args = min_args;
  def.max_args = max_args;
  def.scalar = std::move(fn);
  def.doc = doc;
  def.example = example;
  r.Register(std::move(def));
}

}  // namespace

void RegisterXmlFunctions(FunctionRegistry& r) {
  Reg(r, "EXTRACTVALUE", 2, 2, FnExtractValue, "Text content at an XPath",
      "EXTRACTVALUE('<a><b>x</b></a>', '/a/b')");
  Reg(r, "UPDATEXML", 3, 3, FnUpdateXml, "Replace a subtree at an XPath",
      "UPDATEXML('<a><c></c></a>', '/a/c[1]', '<b></b>')");
  Reg(r, "XML_VALID", 1, 1, FnXmlValid, "Whether text is well-formed XML",
      "XML_VALID('<a></a>')");
  Reg(r, "XML_ROOT", 1, 1, FnXmlRoot, "Root tag name", "XML_ROOT('<a><b/></a>')");
  Reg(r, "XML_ELEMENT_COUNT", 1, 1, FnXmlElementCount, "Total element count",
      "XML_ELEMENT_COUNT('<a><b/><b/></a>')");
}

}  // namespace soft
