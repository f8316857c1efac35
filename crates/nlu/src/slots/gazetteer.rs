//! Database-backed gazetteer: exact and fuzzy matching of slot values
//! against the values actually stored in the database.
//!
//! This is one half of CAT's tight DB integration: the values a user can
//! mean are (mostly) the values in the database, so slot values are snapped
//! onto them ("corrects misspellings", paper §5).

use std::collections::HashMap;

use crate::fuzzy::{best_match, similarity};
use crate::text::{normalize, tokenize};
use crate::types::SlotAnnotation;

/// Per-slot value inventory with normalized lookup.
#[derive(Debug, Clone, Default)]
pub struct Gazetteer {
    /// slot -> canonical values (deduplicated, insertion order).
    values: HashMap<String, Vec<String>>,
    /// slot -> normalized value -> index into `values[slot]`.
    normalized: HashMap<String, HashMap<String, usize>>,
}

impl Gazetteer {
    pub fn new() -> Gazetteer {
        Gazetteer::default()
    }

    /// Register a value for a slot (idempotent).
    pub fn add(&mut self, slot: &str, value: &str) {
        self.add_all(slot, [value]);
    }

    /// Bulk-register values for a slot, looking up the slot's maps once.
    /// A slot that ends up without values is not registered.
    pub fn add_all<I, S>(&mut self, slot: &str, values: I)
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let idx_map = self.normalized.entry(slot.to_string()).or_default();
        let vals = self.values.entry(slot.to_string()).or_default();
        for value in values {
            let value = value.as_ref();
            let norm = normalize(value);
            if norm.is_empty() || idx_map.contains_key(&norm) {
                continue;
            }
            vals.push(value.to_string());
            idx_map.insert(norm, vals.len() - 1);
        }
        if vals.is_empty() {
            self.values.remove(slot);
            self.normalized.remove(slot);
        }
    }

    /// All canonical values of a slot.
    pub fn values(&self, slot: &str) -> &[String] {
        self.values.get(slot).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Registered slot names.
    pub fn slots(&self) -> Vec<&str> {
        self.values.keys().map(String::as_str).collect()
    }

    /// Resolve a raw surface form against a slot's inventory: exact
    /// normalized match first, then fuzzy. Returns the canonical value and
    /// the similarity.
    pub fn resolve(&self, slot: &str, raw: &str, min_similarity: f64) -> Option<(String, f64)> {
        let norm = normalize(raw);
        if let Some(&idx) = self.normalized.get(slot).and_then(|m| m.get(&norm)) {
            return Some((self.values[slot][idx].clone(), 1.0));
        }
        let vals = self.values.get(slot)?;
        let (idx, sim) = best_match(&norm, vals.iter().map(String::as_str), min_similarity)?;
        Some((vals[idx].clone(), sim))
    }

    /// Find slot-value spans in text by sliding token n-gram windows over
    /// the inventory (exact normalized matches, longest-match-first). Used
    /// to catch values the statistical tagger missed.
    pub fn find_spans(&self, text: &str, max_ngram: usize) -> Vec<SlotAnnotation> {
        let tokens = tokenize(text);
        let mut covered = vec![false; tokens.len()];
        let mut out = Vec::new();
        for len in (1..=max_ngram.min(tokens.len())).rev() {
            for start in 0..=(tokens.len() - len) {
                if covered[start..start + len].iter().any(|&c| c) {
                    continue;
                }
                let span_start = tokens[start].start;
                let span_end = tokens[start + len - 1].end;
                let surface = &text[span_start..span_end];
                let norm = normalize(surface);
                for (slot, idx_map) in &self.normalized {
                    if let Some(&idx) = idx_map.get(&norm) {
                        out.push(SlotAnnotation {
                            slot: slot.clone(),
                            start: span_start,
                            end: span_end,
                            value: self.values[slot][idx].clone(),
                        });
                        for c in &mut covered[start..start + len] {
                            *c = true;
                        }
                        break;
                    }
                }
            }
        }
        out.sort_by_key(|s| s.start);
        out
    }

    /// Similarity between a raw form and a specific canonical value.
    pub fn similarity_to(&self, raw: &str, canonical: &str) -> f64 {
        similarity(&normalize(raw), &normalize(canonical))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gaz() -> Gazetteer {
        let mut g = Gazetteer::new();
        g.add_all("movie_title", ["Forrest Gump", "Heat", "The Godfather"]);
        g.add_all("city", ["Berlin", "Darmstadt", "Munich"]);
        g
    }

    #[test]
    fn exact_resolution_is_case_insensitive() {
        let g = gaz();
        let (v, sim) = g.resolve("movie_title", "forrest gump", 0.8).unwrap();
        assert_eq!(v, "Forrest Gump");
        assert_eq!(sim, 1.0);
    }

    #[test]
    fn fuzzy_resolution_corrects_misspelling() {
        let g = gaz();
        let (v, sim) = g.resolve("movie_title", "Forest Gump", 0.8).unwrap();
        assert_eq!(v, "Forrest Gump");
        assert!(sim < 1.0 && sim > 0.9);
        let (v, _) = g.resolve("city", "Darmstat", 0.8).unwrap();
        assert_eq!(v, "Darmstadt");
    }

    #[test]
    fn resolution_fails_below_threshold() {
        let g = gaz();
        assert!(g.resolve("movie_title", "Jurassic Park", 0.8).is_none());
        assert!(g.resolve("unknown_slot", "x", 0.5).is_none());
    }

    #[test]
    fn find_spans_longest_match_first() {
        let g = gaz();
        let text = "two tickets for The Godfather in Berlin";
        let spans = g.find_spans(text, 3);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].slot, "movie_title");
        assert_eq!(spans[0].value, "The Godfather");
        assert_eq!(&text[spans[0].start..spans[0].end], "The Godfather");
        assert_eq!(spans[1].slot, "city");
    }

    #[test]
    fn find_spans_does_not_double_cover() {
        let mut g = Gazetteer::new();
        g.add("a", "New York");
        g.add("b", "York");
        let spans = g.find_spans("flying to New York today", 3);
        // Longest match wins; "York" must not also fire.
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].slot, "a");
    }

    #[test]
    fn add_is_idempotent() {
        let mut g = Gazetteer::new();
        g.add("s", "Heat");
        g.add("s", "heat");
        g.add("s", "HEAT");
        assert_eq!(g.values("s").len(), 1);
        g.add("s", "");
        g.add_all("empty", ["", "  "]);
        assert!(!g.slots().contains(&"empty"), "a slot without values");
        assert_eq!(g.values("s").len(), 1);
    }
}
