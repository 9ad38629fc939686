#include "labeling/labeler.h"

#include <utility>

namespace blas {

void TagCollector::OnStartElement(std::string_view name,
                                  const std::vector<XmlAttribute>& attributes) {
  registry_->Intern(name);
  ++node_count_;
  ++depth_;
  if (depth_ > max_depth_) max_depth_ = depth_;
  for (const XmlAttribute& attr : attributes) {
    registry_->Intern("@" + attr.name);
    ++node_count_;
    if (depth_ + 1 > max_depth_) max_depth_ = depth_ + 1;
  }
}

void TagCollector::OnEndElement(std::string_view /*name*/) { --depth_; }

Labeler::Labeler(const TagRegistry& registry, const PLabelCodec& codec)
    : registry_(registry), codec_(codec) {}

void Labeler::Fail(std::string message) {
  if (status_.ok()) status_ = Status::InvalidArgument(std::move(message));
}

void Labeler::OnStartElement(std::string_view name,
                             const std::vector<XmlAttribute>& attributes) {
  if (!status_.ok()) return;
  auto tag = registry_.Find(name);
  if (!tag.has_value()) {
    Fail("Labeler: tag not in registry: " + std::string(name));
    return;
  }
  int level = static_cast<int>(stack_.size()) + 1;
  if (level > codec_.max_depth()) {
    Fail("Labeler: document deeper than codec capacity");
    return;
  }

  Frame frame;
  frame.record.tag = *tag;
  frame.record.level = level;
  frame.record.start = next_pos_++;
  if (stack_.empty()) {
    frame.record.plabel = codec_.RootLabel(*tag);
    frame.summary = summary_.Extend(summary_.mutable_root(), *tag,
                                    frame.record.plabel,
                                    /*attribute=*/false);
  } else {
    const Frame& parent = stack_.back();
    frame.record.plabel = codec_.ChildLabel(parent.record.plabel, *tag);
    frame.summary = summary_.Extend(parent.summary, *tag,
                                    frame.record.plabel,
                                    /*attribute=*/false);
  }
  frame.summary->count++;

  for (const XmlAttribute& attr : attributes) {
    auto attr_tag = registry_.Find("@" + attr.name);
    if (!attr_tag.has_value()) {
      Fail("Labeler: attribute not in registry: @" + attr.name);
      return;
    }
    if (level + 1 > codec_.max_depth()) {
      Fail("Labeler: document deeper than codec capacity");
      return;
    }
    NodeRecord rec;
    rec.tag = *attr_tag;
    rec.level = level + 1;
    rec.plabel = codec_.ChildLabel(frame.record.plabel, *attr_tag);
    rec.start = next_pos_++;
    next_pos_++;  // attribute value unit
    rec.end = next_pos_++;
    rec.data = dict_.Intern(attr.value);
    SummaryNode* snode = summary_.Extend(frame.summary, *attr_tag, rec.plabel,
                                         /*attribute=*/true);
    snode->count++;
    records_.push_back(rec);
  }

  stack_.push_back(std::move(frame));
}

void Labeler::OnEndElement(std::string_view /*name*/) {
  if (!status_.ok() || stack_.empty()) return;
  Frame frame = std::move(stack_.back());
  stack_.pop_back();
  frame.record.end = next_pos_++;
  if (!frame.text.empty()) {
    frame.record.data = dict_.Intern(frame.text);
  }
  records_.push_back(frame.record);
}

void Labeler::OnText(std::string_view text) {
  if (!status_.ok() || stack_.empty()) return;
  next_pos_++;  // text unit
  stack_.back().text.append(text);
}

}  // namespace blas
