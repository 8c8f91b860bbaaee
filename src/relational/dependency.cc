#include "src/relational/dependency.h"

#include <algorithm>
#include <unordered_set>

#include "src/analysis/planner.h"
#include "src/analysis/termination.h"

namespace tdx {

namespace {

/// Set of variables appearing in a conjunction.
std::unordered_set<VarId> VarsOf(const Conjunction& conj) {
  std::unordered_set<VarId> vars;
  for (const Atom& atom : conj.atoms) {
    for (const Term& t : atom.terms) {
      if (t.is_var()) vars.insert(t.var());
    }
  }
  return vars;
}

/// Appends the temporal variable to every atom and remaps relations to
/// their concrete twins.
Result<Conjunction> LiftConjunction(const Conjunction& conj,
                                    const Schema& schema, VarId t_var) {
  Conjunction out = conj;
  out.num_vars = std::max<std::size_t>(out.num_vars, t_var + 1);
  out.var_names.resize(out.num_vars);
  out.var_names[t_var] = "t";
  for (Atom& atom : out.atoms) {
    TDX_ASSIGN_OR_RETURN(RelationId twin, schema.TwinOf(atom.rel));
    if (!schema.relation(twin).temporal) {
      return Status::InvalidArgument(
          "lifting requires the twin of '" + schema.relation(atom.rel).name +
          "' to be temporal; lift only non-temporal dependencies");
    }
    atom.rel = twin;
    atom.terms.push_back(Term::Var(t_var));
  }
  return out;
}

}  // namespace

Status Tgd::Finalize() {
  if (head.atoms.empty()) {
    return Status::InvalidArgument("tgd '" + label + "' has an empty head");
  }
  const std::size_t nv = std::max(body.num_vars, head.num_vars);
  body.num_vars = head.num_vars = nv;
  if (body.var_names.size() < nv) body.var_names.resize(nv);
  head.var_names = body.var_names;
  const std::unordered_set<VarId> body_vars = VarsOf(body);
  const std::unordered_set<VarId> head_vars = VarsOf(head);
  existential.clear();
  for (VarId v : head_vars) {
    if (body_vars.count(v) == 0) existential.push_back(v);
  }
  std::sort(existential.begin(), existential.end());
  return Status::OK();
}

Status Egd::Finalize() {
  if (body.atoms.empty()) {
    return Status::InvalidArgument("egd '" + label + "' has an empty body");
  }
  const std::unordered_set<VarId> body_vars = VarsOf(body);
  if (body_vars.count(x1) == 0 || body_vars.count(x2) == 0) {
    return Status::InvalidArgument(
        "egd '" + label + "': equality variables must occur in the body");
  }
  if (x1 == x2) {
    return Status::InvalidArgument("egd '" + label +
                                   "' equates a variable with itself");
  }
  return Status::OK();
}

std::string Tgd::ToString(const Schema& schema, const Universe& u) const {
  std::string out = label.empty() ? "" : (label + ": ");
  out += body.ToString(schema, u);
  out += " -> ";
  if (!existential.empty()) {
    out += "exists ";
    for (std::size_t i = 0; i < existential.size(); ++i) {
      if (i > 0) out += ", ";
      const VarId v = existential[i];
      if (v < head.var_names.size() && !head.var_names[v].empty()) {
        out += head.var_names[v];
      } else {
        out += '?';
        out += std::to_string(v);
      }
    }
    out += ": ";
  }
  out += head.ToString(schema, u);
  return out;
}

std::string Egd::ToString(const Schema& schema, const Universe& u) const {
  auto var_name = [this](VarId v) {
    return (v < body.var_names.size() && !body.var_names[v].empty())
               ? body.var_names[v]
               : ("?" + std::to_string(v));
  };
  std::string out = label.empty() ? "" : (label + ": ");
  out += body.ToString(schema, u);
  out += " -> " + var_name(x1) + " = " + var_name(x2);
  return out;
}

std::vector<Conjunction> Mapping::TgdBodies() const {
  std::vector<Conjunction> out;
  out.reserve(st_tgds.size());
  for (const Tgd& tgd : st_tgds) out.push_back(tgd.body);
  return out;
}

std::vector<Conjunction> Mapping::TargetTgdBodies() const {
  std::vector<Conjunction> out;
  out.reserve(target_tgds.size());
  for (const Tgd& tgd : target_tgds) out.push_back(tgd.body);
  return out;
}

std::vector<Conjunction> Mapping::EgdBodies() const {
  std::vector<Conjunction> out;
  out.reserve(egds.size());
  for (const Egd& egd : egds) out.push_back(egd.body);
  return out;
}

std::string Mapping::ToString(const Schema& schema, const Universe& u) const {
  std::string out;
  for (const Tgd& tgd : st_tgds) out += tgd.ToString(schema, u) + "\n";
  for (const Tgd& tgd : target_tgds) out += tgd.ToString(schema, u) + "\n";
  for (const Egd& egd : egds) out += egd.ToString(schema, u) + "\n";
  return out;
}

Result<Tgd> LiftTgd(const Tgd& tgd, const Schema& schema) {
  Tgd out = tgd;
  const VarId t_var = static_cast<VarId>(tgd.num_vars());
  TDX_ASSIGN_OR_RETURN(out.body, LiftConjunction(tgd.body, schema, t_var));
  TDX_ASSIGN_OR_RETURN(out.head, LiftConjunction(tgd.head, schema, t_var));
  out.temporal_var = t_var;
  if (!out.label.empty()) out.label += "+";
  TDX_RETURN_IF_ERROR(out.Finalize());
  return out;
}

Result<Egd> LiftEgd(const Egd& egd, const Schema& schema) {
  Egd out = egd;
  const VarId t_var = static_cast<VarId>(egd.num_vars());
  TDX_ASSIGN_OR_RETURN(out.body, LiftConjunction(egd.body, schema, t_var));
  out.temporal_var = t_var;
  if (!out.label.empty()) out.label += "+";
  TDX_RETURN_IF_ERROR(out.Finalize());
  return out;
}

Result<Mapping> LiftMapping(const Mapping& mapping, const Schema& schema) {
  Mapping out;
  out.st_tgds.reserve(mapping.st_tgds.size());
  out.target_tgds.reserve(mapping.target_tgds.size());
  out.egds.reserve(mapping.egds.size());
  for (const Tgd& tgd : mapping.st_tgds) {
    TDX_ASSIGN_OR_RETURN(Tgd lifted, LiftTgd(tgd, schema));
    out.st_tgds.push_back(std::move(lifted));
  }
  for (const Tgd& tgd : mapping.target_tgds) {
    TDX_ASSIGN_OR_RETURN(Tgd lifted, LiftTgd(tgd, schema));
    out.target_tgds.push_back(std::move(lifted));
  }
  for (const Egd& egd : mapping.egds) {
    TDX_ASSIGN_OR_RETURN(Egd lifted, LiftEgd(egd, schema));
    out.egds.push_back(std::move(lifted));
  }
  return out;
}

Status ValidateMapping(const Mapping& mapping, const Schema& schema) {
  auto where = [](const SourceSpan& span) {
    return span.valid() ? " (" + span.ToString() + ")" : std::string();
  };
  auto check_role = [&schema](const Conjunction& conj, SchemaRole role,
                              const std::string& what) -> Status {
    for (const Atom& atom : conj.atoms) {
      const RelationSchema& rel = schema.relation(atom.rel);
      if (rel.role != role) {
        return Status::InvalidArgument(
            what + " uses relation '" + rel.name + "' with the wrong role");
      }
      if (atom.terms.size() != rel.arity()) {
        return Status::InvalidArgument(what + ": atom over '" + rel.name +
                                       "' has wrong arity");
      }
    }
    return Status::OK();
  };
  for (const Tgd& tgd : mapping.st_tgds) {
    TDX_RETURN_IF_ERROR(check_role(tgd.body, SchemaRole::kSource,
                                   "tgd body " + tgd.label + where(tgd.span)));
    TDX_RETURN_IF_ERROR(check_role(tgd.head, SchemaRole::kTarget,
                                   "tgd head " + tgd.label + where(tgd.span)));
  }
  for (const Tgd& tgd : mapping.target_tgds) {
    TDX_RETURN_IF_ERROR(
        check_role(tgd.body, SchemaRole::kTarget,
                   "target tgd body " + tgd.label + where(tgd.span)));
    TDX_RETURN_IF_ERROR(
        check_role(tgd.head, SchemaRole::kTarget,
                   "target tgd head " + tgd.label + where(tgd.span)));
  }
  for (const Egd& egd : mapping.egds) {
    TDX_RETURN_IF_ERROR(check_role(egd.body, SchemaRole::kTarget,
                                   "egd body " + egd.label + where(egd.span)));
  }
  // Termination: any rung of the ladder will do. An attached certificate is
  // trusted (the parser certifies every program once).
  const TerminationCertificate certificate =
      mapping.certificate.has_value()
          ? *mapping.certificate
          : CertifyTermination(mapping.target_tgds, schema);
  if (!certificate.guarantees_termination()) {
    return Status::InvalidArgument(
        "target tgds are not weakly acyclic (nor stratified): the cycle " +
        certificate.witness +
        " passes through a special (existential) edge; the chase might not "
        "terminate");
  }
  return Status::OK();
}

Status ValidateAndCertifyMapping(Mapping* mapping, const Schema& schema) {
  mapping->certificate.reset();
  mapping->schedule.reset();
  TDX_RETURN_IF_ERROR(ValidateMapping(*mapping, schema));
  mapping->certificate = CertifyTermination(mapping->target_tgds, schema);
  mapping->schedule = PlanChase(*mapping, schema);
  return Status::OK();
}

Status CheckWeaklyAcyclic(const std::vector<Tgd>& target_tgds,
                          const Schema& schema) {
  if (target_tgds.empty()) return Status::OK();
  const PositionGraph graph =
      PositionGraph::Build(target_tgds, schema, PositionGraph::Kind::kWeak);
  const std::optional<SpecialCycle> cycle = graph.FindSpecialCycle();
  if (!cycle.has_value()) return Status::OK();
  const Tgd& culprit = target_tgds[cycle->tgd_index];
  std::string label =
      culprit.label.empty() ? ("#" + std::to_string(cycle->tgd_index + 1))
                            : ("'" + culprit.label + "'");
  return Status::InvalidArgument(
      "target tgds are not weakly acyclic: the cycle " +
      graph.FormatCycle(schema, *cycle) +
      " passes through a special (existential) edge of tgd " + label +
      (culprit.span.valid() ? " (" + culprit.span.ToString() + ")" : "") +
      "; the chase might not terminate");
}

}  // namespace tdx
