#include "src/common/value.h"

namespace tdx {

Value Universe::FreshNull(std::string_view name) {
  const NullId id = next_null_++;
  if (name.empty()) {
    std::string generated = "N";
    generated += std::to_string(id);
    null_names_.push_back(std::move(generated));
  } else {
    null_names_.emplace_back(name);
  }
  return Value::Null(id);
}

Value Universe::FreshAnnotatedNull(std::string_view name,
                                   const Interval& annotation) {
  const Value base = FreshNull(name);
  return Value::AnnotatedNull(base.null_id(), annotation);
}

Value Universe::ProjectNull(const Value& annotated, TimePoint l) {
  assert(annotated.is_annotated_null());
  assert(annotated.interval().Contains(l));
  const std::pair<NullId, TimePoint> key{annotated.null_id(), l};
  auto it = projections_.find(key);
  if (it != projections_.end()) return Value::Null(it->second);
  // The projected null gets a derived display name "N_l" so rendered
  // snapshots read like the paper's Figure 3.
  std::string name(NullName(annotated.null_id()));
  name += "_";
  name += TimePointToString(l);
  const Value fresh = FreshNull(name);
  projections_.emplace(key, fresh.null_id());
  return fresh;
}

void Universe::RestoreNullState(NullId next_null,
                                std::vector<std::string> names) {
  assert(names.size() == next_null);
  next_null_ = next_null;
  null_names_ = std::move(names);
  projections_.clear();
}

std::string_view Universe::NullName(NullId id) const {
  assert(id < null_names_.size());
  return null_names_[id];
}

std::string Universe::Render(const Value& v) const {
  switch (v.kind()) {
    case ValueKind::kConstant:
      return std::string(symbols_.Spelling(v.symbol()));
    case ValueKind::kNull:
      return std::string(NullName(v.null_id()));
    case ValueKind::kAnnotatedNull: {
      std::string out(NullName(v.null_id()));
      out += "^";
      out += v.interval().ToString();
      return out;
    }
    case ValueKind::kInterval:
      return v.interval().ToString();
  }
  return "<invalid>";
}

}  // namespace tdx
