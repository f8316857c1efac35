//! Sparse bag-of-features extraction shared by the intent classifiers.

use std::collections::HashMap;

use crate::text::{lower_tokens, ngrams};

/// A vocabulary mapping feature strings to dense ids.
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    map: HashMap<String, usize>,
}

impl Vocabulary {
    pub fn new() -> Vocabulary {
        Vocabulary::default()
    }

    /// Id for a feature, inserting it if unseen (training time). Only an
    /// unseen feature allocates.
    pub fn intern(&mut self, feature: &str) -> usize {
        if let Some(&id) = self.map.get(feature) {
            return id;
        }
        let id = self.map.len();
        self.map.insert(feature.to_string(), id);
        id
    }

    /// Id for a feature if known (prediction time).
    pub fn get(&self, feature: &str) -> Option<usize> {
        self.map.get(feature).copied()
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Every `(feature, id)` pair, in no particular order.
    pub fn into_entries(self) -> impl Iterator<Item = (String, usize)> {
        self.map.into_iter()
    }
}

/// Sparse feature vector: (feature id, count) pairs, ids strictly
/// increasing.
pub type SparseVec = Vec<(usize, f64)>;

/// Extract the feature strings of an utterance: unigrams, bigrams and a
/// bias feature. Unigrams are lowercased tokens; bigrams are joined with
/// `_` and prefixed to avoid collisions.
pub fn feature_strings(text: &str) -> Vec<String> {
    let toks = lower_tokens(text);
    let mut feats = Vec::with_capacity(toks.len() * 2 + 1);
    feats.push("<bias>".to_string());
    feats.extend(toks.iter().cloned());
    feats.extend(ngrams(&toks, 2).into_iter().map(|g| format!("2g:{g}")));
    feats
}

/// Featurize for training: interning unseen features.
pub fn featurize_train(vocab: &mut Vocabulary, text: &str) -> SparseVec {
    let mut counts: HashMap<usize, f64> = HashMap::new();
    for f in feature_strings(text) {
        *counts.entry(vocab.intern(&f)).or_insert(0.0) += 1.0;
    }
    let mut v: SparseVec = counts.into_iter().collect();
    v.sort_unstable_by_key(|&(i, _)| i);
    v
}

/// Featurize for prediction: unknown features are dropped.
pub fn featurize(vocab: &Vocabulary, text: &str) -> SparseVec {
    let mut counts: HashMap<usize, f64> = HashMap::new();
    for f in feature_strings(text) {
        if let Some(id) = vocab.get(&f) {
            *counts.entry(id).or_insert(0.0) += 1.0;
        }
    }
    let mut v: SparseVec = counts.into_iter().collect();
    v.sort_unstable_by_key(|&(i, _)| i);
    v
}

/// A label dictionary (intent names to ids and back).
#[derive(Debug, Clone, Default)]
pub struct LabelDict {
    names: Vec<String>,
    ids: HashMap<String, usize>,
}

impl LabelDict {
    pub fn intern(&mut self, label: &str) -> usize {
        if let Some(&id) = self.ids.get(label) {
            return id;
        }
        let id = self.names.len();
        self.names.push(label.to_string());
        self.ids.insert(label.to_string(), id);
        id
    }

    pub fn get(&self, label: &str) -> Option<usize> {
        self.ids.get(label).copied()
    }

    pub fn name(&self, id: usize) -> &str {
        &self.names[id]
    }

    pub fn len(&self) -> usize {
        self.names.len()
    }

    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    pub fn names(&self) -> &[String] {
        &self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vocab_interning_is_stable() {
        let mut v = Vocabulary::new();
        let a = v.intern("hello");
        let b = v.intern("world");
        assert_ne!(a, b);
        assert_eq!(v.intern("hello"), a);
        assert_eq!(v.get("hello"), Some(a));
        assert_eq!(v.get("unseen"), None);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn features_include_bias_unigrams_bigrams() {
        let feats = feature_strings("book a ticket");
        assert!(feats.contains(&"<bias>".to_string()));
        assert!(feats.contains(&"book".to_string()));
        assert!(feats.contains(&"2g:book_a".to_string()));
        assert!(feats.contains(&"2g:a_ticket".to_string()));
    }

    #[test]
    fn featurize_counts_duplicates() {
        let mut vocab = Vocabulary::new();
        let v = featurize_train(&mut vocab, "tickets tickets tickets");
        let id = vocab.get("tickets").unwrap();
        let count = v.iter().find(|&&(i, _)| i == id).unwrap().1;
        assert_eq!(count, 3.0);
        // ids strictly increasing
        assert!(v.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn featurize_predict_drops_unknown() {
        let mut vocab = Vocabulary::new();
        featurize_train(&mut vocab, "known words");
        let v = featurize(&vocab, "unknown vocabulary words");
        // only "<bias>" and "words" survive
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn label_dict() {
        let mut d = LabelDict::default();
        let a = d.intern("book");
        let b = d.intern("cancel");
        assert_eq!(d.intern("book"), a);
        assert_eq!(d.name(b), "cancel");
        assert_eq!(d.len(), 2);
        assert_eq!(d.get("nope"), None);
    }
}
