//! The Python type representation used throughout the reproduction.
//!
//! A [`PyType`] is a structured form of a PEP 484 annotation string such as
//! `Dict[str, List[int]]`, `Optional[Foo]`, or `Callable[[int], str]`.
//! Types are parsed from annotation text, can be erased (type parameters
//! dropped, the paper's `Er(·)`), depth-truncated (the paper rewrites
//! components nested deeper than level 2 to `Any`), and rendered back to
//! canonical text.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::str::FromStr;

/// A parsed Python type annotation.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PyType {
    /// The dynamic top type `Any` (also produced from `object` by the
    /// neutrality lattice's perspective, though `object` parses as a
    /// [`PyType::Named`]).
    Any,
    /// The `None` type (`NoneType`).
    None,
    /// A possibly-generic nominal type: `int`, `List[str]`, `np.ndarray`.
    Named {
        /// Canonical type name, possibly dotted (`torch.Tensor`).
        name: String,
        /// Type arguments; empty for non-generic uses.
        args: Vec<PyType>,
    },
    /// A union; always flattened, deduplicated and sorted. `Optional[T]`
    /// parses to `Union[T, None]`.
    Union(Vec<PyType>),
    /// `Callable[[params...], ret]`. A `Callable` with unknown parameters
    /// (`Callable` or `Callable[..., R]`) has `params: None`.
    Callable {
        /// Parameter types, `None` when unspecified (`...`).
        params: Option<Vec<PyType>>,
        /// Return type.
        ret: Box<PyType>,
    },
}

/// Error produced when an annotation string cannot be parsed into a
/// [`PyType`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ParseTypeError {
    text: String,
    reason: String,
}

impl ParseTypeError {
    fn new(text: &str, reason: impl Into<String>) -> Self {
        ParseTypeError {
            text: text.to_string(),
            reason: reason.into(),
        }
    }
}

impl fmt::Display for ParseTypeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid type annotation {:?}: {}",
            self.text, self.reason
        )
    }
}

impl std::error::Error for ParseTypeError {}

impl PyType {
    /// Convenience constructor for a non-generic named type.
    pub fn named(name: impl Into<String>) -> PyType {
        PyType::Named {
            name: canonical_name(&name.into()),
            args: Vec::new(),
        }
    }

    /// Convenience constructor for a generic named type.
    pub fn generic(name: impl Into<String>, args: Vec<PyType>) -> PyType {
        PyType::Named {
            name: canonical_name(&name.into()),
            args,
        }
    }

    /// `Optional[inner]`, normalised to a union with `None`.
    pub fn optional(inner: PyType) -> PyType {
        PyType::union(vec![inner, PyType::None])
    }

    /// A union, flattened / deduplicated / sorted. A single-element union
    /// collapses to its element.
    pub fn union(members: Vec<PyType>) -> PyType {
        let mut flat = Vec::new();
        for m in members {
            match m {
                PyType::Union(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        flat.sort();
        flat.dedup();
        if flat.contains(&PyType::Any) {
            return PyType::Any;
        }
        match flat.len() {
            0 => PyType::Any,
            1 => flat.into_iter().next().expect("len checked"),
            _ => PyType::Union(flat),
        }
    }

    /// The base name of the type with all type parameters erased:
    /// the paper's `Er(·)`. `List[int]` ↦ `List`, unions ↦ `Union`,
    /// callables ↦ `Callable`.
    pub fn erased(&self) -> PyType {
        match self {
            PyType::Any => PyType::Any,
            PyType::None => PyType::None,
            PyType::Named { name, .. } => PyType::Named {
                name: name.clone(),
                args: Vec::new(),
            },
            PyType::Union(_) => PyType::Named {
                name: "Union".into(),
                args: Vec::new(),
            },
            PyType::Callable { .. } => PyType::Named {
                name: "Callable".into(),
                args: Vec::new(),
            },
        }
    }

    /// The erased base name as a string (`List`, `Union`, `int`, ...).
    pub fn base_name(&self) -> &str {
        match self {
            PyType::Any => "Any",
            PyType::None => "None",
            PyType::Named { name, .. } => name,
            PyType::Union(_) => "Union",
            PyType::Callable { .. } => "Callable",
        }
    }

    /// Whether this type takes type parameters in this occurrence.
    pub fn is_parametric(&self) -> bool {
        match self {
            PyType::Named { args, .. } => !args.is_empty(),
            PyType::Union(_) | PyType::Callable { .. } => true,
            _ => false,
        }
    }

    /// Nesting depth of the parametric structure: `int` has depth 0,
    /// `List[int]` depth 1, `List[List[int]]` depth 2.
    pub fn depth(&self) -> usize {
        match self {
            PyType::Any | PyType::None => 0,
            PyType::Named { args, .. } => args.iter().map(|a| a.depth() + 1).max().unwrap_or(0),
            PyType::Union(members) => members.iter().map(|m| m.depth() + 1).max().unwrap_or(0),
            PyType::Callable { params, ret } => {
                let p = params
                    .as_ref()
                    .map(|ps| ps.iter().map(|a| a.depth() + 1).max().unwrap_or(0))
                    .unwrap_or(0);
                p.max(ret.depth() + 1)
            }
        }
    }

    /// Rewrites every component nested deeper than `max_depth` to `Any`,
    /// the preprocessing the paper applies before building its type
    /// lattice (`List[List[List[int]]]` with `max_depth = 2` becomes
    /// `List[List[Any]]`).
    pub fn truncated(&self, max_depth: usize) -> PyType {
        if max_depth == 0 {
            return PyType::Any;
        }
        match self {
            PyType::Any => PyType::Any,
            PyType::None => PyType::None,
            PyType::Named { name, args } => PyType::Named {
                name: name.clone(),
                args: args.iter().map(|a| a.truncated(max_depth - 1)).collect(),
            },
            PyType::Union(members) => {
                PyType::union(members.iter().map(|m| m.truncated(max_depth - 1)).collect())
            }
            PyType::Callable { params, ret } => PyType::Callable {
                params: params
                    .as_ref()
                    .map(|ps| ps.iter().map(|p| p.truncated(max_depth - 1)).collect()),
                ret: Box::new(ret.truncated(max_depth - 1)),
            },
        }
    }

    /// Whether two types match exactly (the paper's *exact match*
    /// criterion) — structural equality after canonicalisation, which
    /// `PartialEq` provides since construction canonicalises.
    pub fn matches_exactly(&self, other: &PyType) -> bool {
        self == other
    }

    /// Whether two types match when all type parameters are ignored
    /// (the paper's *match up to parametric type* criterion).
    pub fn matches_up_to_parametric(&self, other: &PyType) -> bool {
        self.erased() == other.erased()
    }

    /// Whether the type is `Any` or `object` — the lattice ⊤, which the
    /// paper excludes both from the dataset and from neutral predictions.
    pub fn is_top(&self) -> bool {
        matches!(self, PyType::Any) || self.base_name() == "object"
    }

    /// Iterates over this type and all component types, outermost first.
    pub fn walk(&self) -> Vec<&PyType> {
        let mut out = vec![self];
        match self {
            PyType::Named { args, .. } => {
                for a in args {
                    out.extend(a.walk());
                }
            }
            PyType::Union(members) => {
                for m in members {
                    out.extend(m.walk());
                }
            }
            PyType::Callable { params, ret } => {
                if let Some(ps) = params {
                    for p in ps {
                        out.extend(p.walk());
                    }
                }
                out.extend(ret.walk());
            }
            _ => {}
        }
        out
    }
}

/// Maps lowercase builtin container names to their `typing` spellings and
/// resolves common aliases, so `list[int]` and `List[int]` compare equal.
pub fn canonical_name(name: &str) -> String {
    match name {
        "list" => "List".into(),
        "dict" => "Dict".into(),
        "set" => "Set".into(),
        "tuple" => "Tuple".into(),
        "frozenset" => "FrozenSet".into(),
        "type" => "Type".into(),
        "typing.List" => "List".into(),
        "typing.Dict" => "Dict".into(),
        "typing.Set" => "Set".into(),
        "typing.Tuple" => "Tuple".into(),
        "typing.Optional" => "Optional".into(),
        "typing.Union" => "Union".into(),
        "typing.Any" => "Any".into(),
        "typing.Callable" => "Callable".into(),
        "typing.Iterable" => "Iterable".into(),
        "typing.Iterator" => "Iterator".into(),
        "typing.Sequence" => "Sequence".into(),
        "typing.Mapping" => "Mapping".into(),
        "NoneType" => "None".into(),
        other => other.into(),
    }
}

impl fmt::Display for PyType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PyType::Any => write!(f, "Any"),
            PyType::None => write!(f, "None"),
            PyType::Named { name, args } => {
                write!(f, "{name}")?;
                if !args.is_empty() {
                    write!(f, "[")?;
                    for (i, a) in args.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{a}")?;
                    }
                    write!(f, "]")?;
                }
                Ok(())
            }
            PyType::Union(members) => {
                // Render Union[T, None] in its idiomatic Optional form.
                let non_none: Vec<&PyType> =
                    members.iter().filter(|m| **m != PyType::None).collect();
                if non_none.len() == members.len() - 1 && non_none.len() == 1 {
                    return write!(f, "Optional[{}]", non_none[0]);
                }
                write!(f, "Union[")?;
                for (i, m) in members.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{m}")?;
                }
                write!(f, "]")
            }
            PyType::Callable { params, ret } => match params {
                Some(ps) => {
                    write!(f, "Callable[[")?;
                    for (i, p) in ps.iter().enumerate() {
                        if i > 0 {
                            write!(f, ", ")?;
                        }
                        write!(f, "{p}")?;
                    }
                    write!(f, "], {ret}]")
                }
                None => write!(f, "Callable[..., {ret}]"),
            },
        }
    }
}

impl FromStr for PyType {
    type Err = ParseTypeError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        parse_nested(s, 0)
    }
}

/// Deepest nesting of `[` argument lists, Callable parameter lists and
/// quoted annotations the parser accepts. The parser recurses once per
/// level, so without a cap a long run of `List[` overflows the thread's
/// stack, which aborts the process. Real annotations stay in single
/// digits.
const MAX_TYPE_NESTING: usize = 100;

/// Parses `s` as an annotation found `depth` levels deep.
fn parse_nested(s: &str, depth: usize) -> Result<PyType, ParseTypeError> {
    let mut p = TypeParser {
        text: s,
        bytes: s.as_bytes(),
        pos: 0,
        depth,
    };
    let ty = p.parse_union()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(ParseTypeError::new(
            s,
            format!("trailing input at byte {}", p.pos),
        ));
    }
    Ok(ty)
}

struct TypeParser<'s> {
    text: &'s str,
    bytes: &'s [u8],
    pos: usize,
    /// Nesting level of the position being parsed.
    depth: usize,
}

impl TypeParser<'_> {
    fn skip_ws(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn err(&self, reason: impl Into<String>) -> ParseTypeError {
        ParseTypeError::new(self.text, reason)
    }

    /// Enters one nesting level; past [`MAX_TYPE_NESTING`] the parse
    /// fails instead of recursing further.
    fn descend(&mut self) -> Result<(), ParseTypeError> {
        self.depth += 1;
        if self.depth > MAX_TYPE_NESTING {
            return Err(self.err(format!("nested deeper than {MAX_TYPE_NESTING} levels")));
        }
        Ok(())
    }

    /// `atom ('|' atom)*` — PEP 604 unions.
    fn parse_union(&mut self) -> Result<PyType, ParseTypeError> {
        let first = self.parse_atom()?;
        self.skip_ws();
        if self.peek() != Some(b'|') {
            return Ok(first);
        }
        let mut members = vec![first];
        while self.peek() == Some(b'|') {
            self.pos += 1;
            members.push(self.parse_atom()?);
            self.skip_ws();
        }
        Ok(PyType::union(members))
    }

    fn parse_atom(&mut self) -> Result<PyType, ParseTypeError> {
        self.skip_ws();
        match self.peek() {
            Some(b'[') => {
                // A bare bracket list only appears as Callable's first arg;
                // handled inside parse_args. Elsewhere it is an error.
                Err(self.err("unexpected `[`"))
            }
            Some(b'.') if self.text[self.pos..].starts_with("...") => {
                self.pos += 3;
                Ok(PyType::Any) // `...` in Tuple[X, ...]: treated as Any
            }
            Some(b'\'') | Some(b'"') => {
                let quote = self.peek().expect("peeked");
                self.pos += 1;
                let start = self.pos;
                while self.peek().is_some_and(|b| b != quote) {
                    self.pos += 1;
                }
                let inner: String = self.text[start..self.pos].to_string();
                if self.peek() != Some(quote) {
                    return Err(self.err("unterminated quoted annotation"));
                }
                self.pos += 1;
                self.descend()?;
                parse_nested(&inner, self.depth)
            }
            Some(c) if c.is_ascii_alphabetic() || c == b'_' => {
                let start = self.pos;
                while self
                    .peek()
                    .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.')
                {
                    self.pos += 1;
                }
                let name = &self.text[start..self.pos];
                self.finish_named(name)
            }
            Some(c) => Err(self.err(format!("unexpected character {:?}", c as char))),
            None => Err(self.err("empty annotation")),
        }
    }

    fn finish_named(&mut self, raw_name: &str) -> Result<PyType, ParseTypeError> {
        self.skip_ws();
        let name = canonical_name(raw_name);
        let args = if self.peek() == Some(b'[') {
            self.pos += 1;
            self.descend()?;
            let args = self.parse_args()?;
            self.depth -= 1;
            self.skip_ws();
            if self.peek() != Some(b']') {
                return Err(self.err("missing closing `]`"));
            }
            self.pos += 1;
            args
        } else {
            Vec::new()
        };
        Ok(match name.as_str() {
            "Any" => PyType::Any,
            "None" => PyType::None,
            "Optional" => match args.len() {
                0 => PyType::optional(PyType::Any),
                1 => PyType::optional(args.into_iter().next().expect("len checked")),
                _ => return Err(self.err("Optional takes one argument")),
            },
            "Union" => PyType::union(args),
            "Callable" => match args.len() {
                0 => PyType::Callable {
                    params: None,
                    ret: Box::new(PyType::Any),
                },
                2 => {
                    let mut it = args.into_iter();
                    let params = it.next().expect("len checked");
                    let ret = it.next().expect("len checked");
                    let params = match params {
                        // parse_args wraps [A, B] as Tuple marker below.
                        PyType::Named { name, args } if name == "__paramlist__" => Some(args),
                        PyType::Any => None, // Callable[..., R]
                        single => Some(vec![single]),
                    };
                    PyType::Callable {
                        params,
                        ret: Box::new(ret),
                    }
                }
                _ => {
                    // Callable[A, B, R] (lenient): last is return type.
                    let mut args = args;
                    let ret = args.pop().unwrap_or(PyType::Any);
                    PyType::Callable {
                        params: Some(args),
                        ret: Box::new(ret),
                    }
                }
            },
            _ => PyType::Named { name, args },
        })
    }

    fn parse_args(&mut self) -> Result<Vec<PyType>, ParseTypeError> {
        let mut args = Vec::new();
        loop {
            self.skip_ws();
            if self.peek() == Some(b']') {
                break;
            }
            if self.peek() == Some(b'[') {
                // Callable parameter list.
                self.pos += 1;
                self.descend()?;
                let inner = self.parse_args()?;
                self.depth -= 1;
                self.skip_ws();
                if self.peek() != Some(b']') {
                    return Err(self.err("missing `]` closing parameter list"));
                }
                self.pos += 1;
                args.push(PyType::Named {
                    name: "__paramlist__".into(),
                    args: inner,
                });
            } else {
                args.push(self.parse_union()?);
            }
            self.skip_ws();
            if self.peek() == Some(b',') {
                self.pos += 1;
            } else {
                break;
            }
        }
        Ok(args)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: &str) -> PyType {
        s.parse().unwrap_or_else(|e| panic!("{e}"))
    }

    #[test]
    fn parses_scalars() {
        assert_eq!(t("int"), PyType::named("int"));
        assert_eq!(t("Any"), PyType::Any);
        assert_eq!(t("None"), PyType::None);
        assert_eq!(t("NoneType"), PyType::None);
    }

    #[test]
    fn parses_generics() {
        assert_eq!(
            t("Dict[str, List[int]]"),
            PyType::generic(
                "Dict",
                vec![
                    PyType::named("str"),
                    PyType::generic("List", vec![PyType::named("int")])
                ]
            )
        );
    }

    #[test]
    fn lowercase_builtins_canonicalise() {
        assert_eq!(t("list[int]"), t("List[int]"));
        assert_eq!(t("typing.Dict[str, int]"), t("Dict[str, int]"));
    }

    #[test]
    fn optional_normalises_to_union() {
        assert_eq!(
            t("Optional[int]"),
            PyType::union(vec![PyType::named("int"), PyType::None])
        );
        assert_eq!(t("Optional[int]"), t("Union[int, None]"));
        assert_eq!(t("Optional[int]"), t("int | None"));
    }

    #[test]
    fn unions_flatten_sort_dedup() {
        assert_eq!(t("Union[int, Union[str, int]]"), t("Union[str, int]"));
        assert_eq!(t("Union[int, int]"), PyType::named("int"));
        assert_eq!(t("Union[int, Any]"), PyType::Any);
    }

    #[test]
    fn parses_callable() {
        match t("Callable[[int, str], bool]") {
            PyType::Callable {
                params: Some(ps),
                ret,
            } => {
                assert_eq!(ps.len(), 2);
                assert_eq!(*ret, PyType::named("bool"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match t("Callable[..., int]") {
            PyType::Callable { params: None, ret } => assert_eq!(*ret, PyType::named("int")),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parses_dotted_and_quoted() {
        assert_eq!(t("torch.Tensor"), PyType::named("torch.Tensor"));
        assert_eq!(t("'Foo'"), PyType::named("Foo"));
        assert_eq!(
            t("List['Node']"),
            PyType::generic("List", vec![PyType::named("Node")])
        );
    }

    /// `levels` nested `List[`, around `int`.
    fn nested_list(levels: usize) -> String {
        format!("{}int{}", "List[".repeat(levels), "]".repeat(levels))
    }

    #[test]
    fn nesting_up_to_the_cap_parses() {
        let ty = t(&nested_list(MAX_TYPE_NESTING));
        assert_eq!(ty.to_string(), nested_list(MAX_TYPE_NESTING));
        let err = nested_list(MAX_TYPE_NESTING + 1)
            .parse::<PyType>()
            .expect_err("one level past the cap");
        assert!(err.to_string().contains("nested deeper than"), "{err}");
        // Callable parameter lists count as a level too.
        let callable = format!(
            "{}Callable[[int], int]{}",
            "List[".repeat(MAX_TYPE_NESTING - 1),
            "]".repeat(MAX_TYPE_NESTING - 1)
        );
        assert!(callable.parse::<PyType>().is_err());
    }

    #[test]
    fn quoted_annotations_carry_the_depth() {
        let half = MAX_TYPE_NESTING / 2;
        let quoted = |inner: usize| {
            format!(
                "{}'{}'{}",
                "List[".repeat(half),
                nested_list(inner),
                "]".repeat(half)
            )
        };
        // The quote itself is one level.
        assert!(quoted(half - 1).parse::<PyType>().is_ok());
        assert!(quoted(half).parse::<PyType>().is_err());
    }

    #[test]
    fn deep_nesting_is_an_error_not_a_stack_overflow() {
        let text = nested_list(100_000);
        let result = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(move || text.parse::<PyType>().is_err())
            .expect("spawn parser thread")
            .join()
            .expect("parser thread must not crash");
        assert!(result, "100 000 nested levels must be rejected");
    }

    #[test]
    fn tuple_ellipsis() {
        assert_eq!(
            t("Tuple[int, ...]"),
            PyType::generic("Tuple", vec![PyType::named("int"), PyType::Any])
        );
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "int",
            "List[int]",
            "Dict[str, List[int]]",
            "Optional[int]",
            "Union[bytes, int, str]",
            "Callable[[int], str]",
            "Tuple[bool, Tuple[Foo, Any]]",
            "torch.Tensor",
        ] {
            let ty = t(s);
            assert_eq!(ty, t(&ty.to_string()), "round trip failed for {s}");
        }
    }

    #[test]
    fn erasure() {
        assert_eq!(t("List[int]").erased(), PyType::named("List"));
        assert_eq!(t("Optional[int]").erased(), PyType::named("Union"));
        assert_eq!(
            t("Callable[[int], str]").erased(),
            PyType::named("Callable")
        );
        assert_eq!(t("int").erased(), PyType::named("int"));
    }

    #[test]
    fn depth_and_truncation() {
        assert_eq!(t("int").depth(), 0);
        assert_eq!(t("List[int]").depth(), 1);
        assert_eq!(t("List[List[List[int]]]").depth(), 3);
        // The paper's example: deep nesting truncates to Any at level 2.
        assert_eq!(
            t("List[List[List[int]]]").truncated(2),
            t("List[List[Any]]")
        );
        assert_eq!(t("List[int]").truncated(2), t("List[int]"));
    }

    #[test]
    fn match_criteria() {
        assert!(t("List[int]").matches_exactly(&t("list[int]")));
        assert!(!t("List[int]").matches_exactly(&t("List[str]")));
        assert!(t("List[int]").matches_up_to_parametric(&t("List[str]")));
        assert!(!t("List[int]").matches_up_to_parametric(&t("Set[int]")));
        assert!(t("Optional[int]").matches_up_to_parametric(&t("Union[str, None]")));
    }

    #[test]
    fn top_detection() {
        assert!(t("Any").is_top());
        assert!(t("object").is_top());
        assert!(!t("int").is_top());
    }

    #[test]
    fn walk_visits_components() {
        let ty = t("Dict[str, List[int]]");
        let names: Vec<&str> = ty.walk().iter().map(|c| c.base_name()).collect();
        assert_eq!(names, vec!["Dict", "str", "List", "int"]);
    }

    #[test]
    fn errors_on_garbage() {
        assert!("".parse::<PyType>().is_err());
        assert!("List[int".parse::<PyType>().is_err());
        assert!("123".parse::<PyType>().is_err());
        assert!("List[int]]".parse::<PyType>().is_err());
    }
}
