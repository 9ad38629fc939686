#ifndef BLAS_LABELING_TAG_REGISTRY_H_
#define BLAS_LABELING_TAG_REGISTRY_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace blas {

/// Identifier of an element/attribute tag. Id 0 is reserved for the path
/// separator "/" (the paper assigns '/' its own ratio slot r0); real tags
/// are numbered 1..n in registration order (the paper notes the particular
/// tag order is irrelevant).
using TagId = uint32_t;

inline constexpr TagId kSlashTag = 0;

/// \brief Bidirectional tag-name <-> TagId map.
///
/// The P-label base is `size() + 1`, so the registry must be frozen before
/// the P-label codec is built; the labeling pass rejects unseen tags.
class TagRegistry {
 public:
  TagRegistry() = default;

  /// Returns the id of `name`, registering it if new. Must not be called
  /// after Freeze().
  TagId Intern(std::string_view name);

  /// Returns the id of `name` if registered.
  std::optional<TagId> Find(std::string_view name) const;

  /// Returns the name for a valid id ("/" for kSlashTag).
  const std::string& Name(TagId id) const;

  /// True iff `id` names an attribute ("@name"). The XPath wildcard `*`
  /// selects elements only, so both translators skip these tags for it.
  bool IsAttribute(TagId id) const {
    return id != kSlashTag && Name(id).starts_with('@');
  }

  /// Number of distinct real tags (excludes the "/" slot).
  size_t size() const { return names_.size(); }

  /// Disallows further Intern() calls (checked in debug builds).
  void Freeze() { frozen_ = true; }
  bool frozen() const { return frozen_; }

 private:
  std::vector<std::string> names_;  // index = id - 1
  std::unordered_map<std::string, TagId> ids_;
  bool frozen_ = false;
};

}  // namespace blas

#endif  // BLAS_LABELING_TAG_REGISTRY_H_
