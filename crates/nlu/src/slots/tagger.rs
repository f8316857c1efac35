//! Averaged-perceptron BIO slot tagger with Viterbi decoding.
//!
//! This is the from-scratch stand-in for RASA's neural slot filler: a
//! classical structured perceptron (Collins, EMNLP 2002) over
//! lexical/shape features with a first-order transition model, decoded
//! with Viterbi under the hard constraint that `I-x` may only follow
//! `B-x` or `I-x`.
//!
//! Training is compiled before the first epoch: every example is
//! tokenized once, its per-position feature strings are interned into
//! dense ids (`u16` while the vocabulary fits), and its gold tags become
//! small ints. Emission weights live in flat rows indexed
//! `row * n_tags + tag`, a row allocated the first time its feature is
//! updated; a feature without a row scores nothing. The BIO constraint
//! is a `(k + 1) × k` mask built once. Every update happens in the order of the
//! string-keyed reference trainer in `tests/tagger_parity.rs`, and every
//! emission sum adds the same terms in the same order, so the trained
//! model must stay bit-identical to it.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::features::Vocabulary;
use crate::text::{word_shape, Token};
use crate::types::{spans_from_bio, NluExample, SlotAnnotation};

/// Training hyperparameters.
#[derive(Debug, Clone)]
pub struct TaggerConfig {
    pub epochs: usize,
    pub seed: u64,
}

impl Default for TaggerConfig {
    fn default() -> Self {
        TaggerConfig {
            epochs: 8,
            seed: 11,
        }
    }
}

/// Trained BIO tagger.
#[derive(Debug, Clone)]
pub struct SlotTagger {
    tags: Vec<String>,
    /// Feature string -> its row of `weights`, for every feature that
    /// training updated (no other feature can score).
    rows: HashMap<String, u32>,
    /// Emission weights: `weights[row * n_tags + tag]`.
    weights: Vec<f64>,
    /// Transition weights: `trans[prev * n_tags + next]`.
    trans: Vec<f64>,
    /// Initial-tag weights.
    init: Vec<f64>,
    /// BIO mask: `allowed[(prev + 1) * n_tags + next]`, row 0 being the
    /// sentence start.
    allowed: Vec<bool>,
}

const NEG_INF: f64 = f64::NEG_INFINITY;

/// Row marker of a feature that has never been updated.
const NO_ROW: u32 = u32::MAX;

impl SlotTagger {
    /// Train on annotated examples with default hyperparameters.
    pub fn train(data: &[NluExample]) -> SlotTagger {
        Self::train_with(data, &TaggerConfig::default())
    }

    /// Train with explicit hyperparameters. Uses the averaged perceptron
    /// (weights averaged over all update steps) for stability.
    pub fn train_with(data: &[NluExample], cfg: &TaggerConfig) -> SlotTagger {
        let corpus = Corpus::compile(data);
        let allowed = bio_mask(&corpus.tags);
        let fit = match &corpus.ids {
            FeatureIds::Narrow(ids) => Perceptron::fit(&corpus, ids, &allowed, cfg),
            FeatureIds::Wide(ids) => Perceptron::fit(&corpus, ids, &allowed, cfg),
        };
        // Only updated features keep their string.
        let rows = corpus
            .vocab
            .into_entries()
            .filter_map(|(feature, id)| {
                let row = fit.row_of[id];
                (row != NO_ROW).then_some((feature, row))
            })
            .collect();
        SlotTagger {
            tags: corpus.tags,
            rows,
            weights: fit.weights,
            trans: fit.trans,
            init: fit.init,
            allowed,
        }
    }

    /// Tag a tokenized utterance; returns BIO tag strings per token.
    pub fn tag(&self, tokens: &[Token]) -> Vec<String> {
        if tokens.is_empty() {
            return Vec::new();
        }
        let k = self.tags.len();
        let lowers: Vec<String> = tokens.iter().map(Token::lower).collect();
        let mut em = Vec::with_capacity(tokens.len() * k);
        let mut buf = String::new();
        for i in 0..tokens.len() {
            let base = em.len();
            em.resize(base + k, SUM_START);
            position_features(tokens, &lowers, i, &mut buf, |f| {
                if let Some(&row) = self.rows.get(f) {
                    add_row(&mut em[base..base + k], &self.weights, row);
                }
            });
        }
        viterbi(&em, &self.init, &self.trans, &self.allowed)
            .into_iter()
            .map(|t| self.tags[t].clone())
            .collect()
    }

    /// Extract slot annotations from raw text.
    pub fn extract(&self, text: &str) -> Vec<SlotAnnotation> {
        let tokens = crate::text::tokenize(text);
        let tags = self.tag(&tokens);
        spans_from_bio(text, &tokens, &tags)
    }

    /// The tag inventory.
    pub fn tag_set(&self) -> &[String] {
        &self.tags
    }

    /// The features training updated, in no particular order.
    pub fn weighted_features(&self) -> impl Iterator<Item = &str> + '_ {
        self.rows.keys().map(String::as_str)
    }

    /// The per-tag emission weights of `feature`, or `None` when training
    /// never updated it.
    pub fn emission_weights(&self, feature: &str) -> Option<&[f64]> {
        let k = self.tags.len();
        let row = *self.rows.get(feature)? as usize;
        Some(&self.weights[row * k..(row + 1) * k])
    }

    /// The weight of tag `next` following tag `prev`.
    pub fn transition_weight(&self, prev: usize, next: usize) -> f64 {
        self.trans[prev * self.tags.len() + next]
    }

    /// The weight of each tag opening an utterance.
    pub fn initial_weights(&self) -> &[f64] {
        &self.init
    }
}

/// The start of every emission sum: `-0.0`, the additive identity
/// (`-0.0 + x == x` for every `x`), which `Iterator::sum` over `f64`
/// starts from too.
const SUM_START: f64 = -0.0;

/// Add emission row `row` of `weights` into `em`, tag by tag.
fn add_row(em: &mut [f64], weights: &[f64], row: u32) {
    let k = em.len();
    let start = row as usize * k;
    for (e, w) in em.iter_mut().zip(&weights[start..start + k]) {
        *e += w;
    }
}

/// Whether tag `next` may follow `prev` (`None` = sentence start) under
/// BIO constraints, as a flat `(k + 1) × k` mask.
fn bio_mask(tags: &[String]) -> Vec<bool> {
    let continues = |prev: &str, slot: &str| {
        prev.strip_prefix("B-") == Some(slot) || prev.strip_prefix("I-") == Some(slot)
    };
    let mut mask = Vec::with_capacity((tags.len() + 1) * tags.len());
    for prev in std::iter::once(None).chain(tags.iter().map(Some)) {
        for next in tags {
            mask.push(match next.strip_prefix("I-") {
                Some(slot) => prev.is_some_and(|p| continues(p, slot)),
                None => true,
            });
        }
    }
    mask
}

/// The best BIO-legal tag sequence for the emission rows `em[i * k + t]`.
#[allow(clippy::needless_range_loop)]
fn viterbi(em: &[f64], init: &[f64], trans: &[f64], allowed: &[bool]) -> Vec<usize> {
    let k = init.len();
    let n = em.len() / k;
    let mut score = vec![NEG_INF; n * k];
    let mut back = vec![0usize; n * k];
    for t in 0..k {
        if allowed[t] {
            score[t] = init[t] + em[t];
        }
    }
    for i in 1..n {
        let (done, rest) = score.split_at_mut(i * k);
        let prev = &done[(i - 1) * k..];
        for t in 0..k {
            let mut best = NEG_INF;
            let mut best_p = 0;
            for p in 0..k {
                if prev[p] == NEG_INF || !allowed[(p + 1) * k + t] {
                    continue;
                }
                let s = prev[p] + trans[p * k + t];
                if s > best {
                    best = s;
                    best_p = p;
                }
            }
            if best > NEG_INF {
                rest[t] = best + em[i * k + t];
                back[i * k + t] = best_p;
            }
        }
    }
    // Backtrack.
    let last_row = &score[(n - 1) * k..];
    let mut last = (0..k)
        .max_by(|&a, &b| last_row[a].partial_cmp(&last_row[b]).expect("comparable"))
        .expect("k > 0");
    let mut path = vec![0usize; n];
    path[n - 1] = last;
    for i in (1..n).rev() {
        last = back[i * k + last];
        path[i - 1] = last;
    }
    path
}

/// Interned feature ids, as narrow as the vocabulary allows.
enum FeatureIds {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

impl FeatureIds {
    /// Append `id`, widening every id once the vocabulary outgrows `u16`.
    fn push(&mut self, id: usize) {
        match self {
            FeatureIds::Narrow(ids) => match u16::try_from(id) {
                Ok(id) => ids.push(id),
                Err(_) => {
                    let mut wide: Vec<u32> = ids.iter().map(|&i| u32::from(i)).collect();
                    wide.push(u32::try_from(id).expect("fewer than 2^32 features"));
                    *self = FeatureIds::Wide(wide);
                }
            },
            FeatureIds::Wide(ids) => ids.push(u32::try_from(id).expect("fewer than 2^32 features")),
        }
    }
}

/// The training set, compiled once before the first epoch.
struct Corpus {
    /// The tag inventory: `O` first, then in order of first appearance.
    tags: Vec<String>,
    vocab: Vocabulary,
    /// The feature ids of every position of every example, concatenated.
    ids: FeatureIds,
    /// Position `p`'s ids are `ids[feat_start[p]..feat_start[p + 1]]`.
    feat_start: Vec<u32>,
    /// The gold tag of every position.
    gold: Vec<u16>,
    /// Example `e`'s positions are `pos_start[e]..pos_start[e + 1]`.
    pos_start: Vec<u32>,
}

impl Corpus {
    fn compile(data: &[NluExample]) -> Corpus {
        let mut tags = vec!["O".to_string()];
        let mut tag_ids: HashMap<String, u16> = HashMap::new();
        tag_ids.insert("O".to_string(), 0);
        let mut vocab = Vocabulary::new();
        let mut ids = FeatureIds::Narrow(Vec::new());
        let (mut feat_start, mut gold, mut pos_start) = (vec![0], Vec::new(), vec![0]);
        let mut buf = String::new();
        let mut n_ids = 0usize;
        for ex in data {
            let (tokens, tag_strs) = ex.bio_tags();
            for t in tag_strs {
                let next = u16::try_from(tags.len()).expect("fewer than 2^16 tags");
                gold.push(*tag_ids.entry(t).or_insert_with_key(|t| {
                    tags.push(t.clone());
                    next
                }));
            }
            let lowers: Vec<String> = tokens.iter().map(Token::lower).collect();
            for i in 0..tokens.len() {
                position_features(&tokens, &lowers, i, &mut buf, |f| {
                    ids.push(vocab.intern(f));
                    n_ids += 1;
                });
                feat_start.push(u32::try_from(n_ids).expect("fewer than 2^32 feature ids"));
            }
            pos_start.push(u32::try_from(gold.len()).expect("fewer than 2^32 positions"));
        }
        Corpus {
            tags,
            vocab,
            ids,
            feat_start,
            gold,
            pos_start,
        }
    }
}

/// Averaged-perceptron state over a compiled corpus. Every weight keeps a
/// running total and the step it last changed at, so averaging is lazy:
/// a weight's total catches up only when it is touched.
struct Perceptron {
    k: usize,
    step: usize,
    /// Feature id -> row of `weights`, `NO_ROW` until first updated.
    row_of: Vec<u32>,
    weights: Vec<f64>,
    w_total: Vec<f64>,
    /// One stamp per emission row: both tags an update touches share it.
    w_stamp: Vec<usize>,
    trans: Vec<f64>,
    t_total: Vec<f64>,
    t_stamp: Vec<usize>,
    init: Vec<f64>,
    i_total: Vec<f64>,
    i_stamp: Vec<usize>,
}

impl Perceptron {
    /// Train on `corpus`, whose feature ids are `ids`, and return the
    /// averaged weights.
    fn fit<I: Copy + Into<u32>>(
        corpus: &Corpus,
        ids: &[I],
        allowed: &[bool],
        cfg: &TaggerConfig,
    ) -> Perceptron {
        let k = corpus.tags.len();
        let mut p = Perceptron {
            k,
            step: 0,
            row_of: vec![NO_ROW; corpus.vocab.len()],
            weights: Vec::new(),
            w_total: Vec::new(),
            w_stamp: Vec::new(),
            trans: vec![0.0; k * k],
            t_total: vec![0.0; k * k],
            t_stamp: vec![0; k * k],
            init: vec![0.0; k],
            i_total: vec![0.0; k],
            i_stamp: vec![0; k],
        };
        let feats = |pos: usize| {
            ids[corpus.feat_start[pos] as usize..corpus.feat_start[pos + 1] as usize]
                .iter()
                .map(|&id| id.into() as usize)
        };
        let n_examples = corpus.pos_start.len() - 1;
        let mut order: Vec<usize> = (0..n_examples).collect();
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let mut em = Vec::new();
        for _ in 0..cfg.epochs {
            order.shuffle(&mut rng);
            for &e in &order {
                let positions = corpus.pos_start[e] as usize..corpus.pos_start[e + 1] as usize;
                if positions.is_empty() {
                    continue;
                }
                p.step += 1;
                em.clear();
                for pos in positions.clone() {
                    let base = em.len();
                    em.resize(base + k, SUM_START);
                    for id in feats(pos) {
                        let row = p.row_of[id];
                        if row != NO_ROW {
                            add_row(&mut em[base..base + k], &p.weights, row);
                        }
                    }
                }
                let pred = viterbi(&em, &p.init, &p.trans, allowed);
                let gold = &corpus.gold[positions.clone()];
                if pred.iter().zip(gold).all(|(&t, &g)| t == usize::from(g)) {
                    continue;
                }
                let gold: Vec<usize> = gold.iter().map(|&g| usize::from(g)).collect();
                // Perceptron update: +gold, -pred.
                for (i, pos) in positions.enumerate() {
                    if pred[i] != gold[i] {
                        for id in feats(pos) {
                            p.update_emission(id, gold[i], pred[i]);
                        }
                    }
                }
                // Transition / init updates.
                if gold[0] != pred[0] {
                    p.update_init(gold[0], 1.0);
                    p.update_init(pred[0], -1.0);
                }
                for i in 1..gold.len() {
                    if gold[i - 1] != pred[i - 1] || gold[i] != pred[i] {
                        p.update_trans(gold[i - 1] * k + gold[i], 1.0);
                        p.update_trans(pred[i - 1] * k + pred[i], -1.0);
                    }
                }
            }
        }
        p.average();
        p
    }

    /// Move feature `id`'s weight toward `gold` and away from `pred`,
    /// allocating its row on first use.
    fn update_emission(&mut self, id: usize, gold: usize, pred: usize) {
        let k = self.k;
        if self.row_of[id] == NO_ROW {
            self.row_of[id] = u32::try_from(self.w_stamp.len()).expect("fewer than 2^32 rows");
            self.weights.resize(self.weights.len() + k, 0.0);
            self.w_total.resize(self.w_total.len() + k, 0.0);
            self.w_stamp.push(0);
        }
        let row = self.row_of[id] as usize;
        let w = &mut self.weights[row * k..(row + 1) * k];
        let tot = &mut self.w_total[row * k..(row + 1) * k];
        // Lazy-average both affected tags.
        let elapsed = (self.step - self.w_stamp[row]) as f64;
        for t in [gold, pred] {
            tot[t] += elapsed * w[t];
        }
        self.w_stamp[row] = self.step;
        w[gold] += 1.0;
        w[pred] -= 1.0;
    }

    fn update_trans(&mut self, cell: usize, delta: f64) {
        let elapsed = (self.step - self.t_stamp[cell]) as f64;
        self.t_total[cell] += elapsed * self.trans[cell];
        self.t_stamp[cell] = self.step;
        self.trans[cell] += delta;
    }

    fn update_init(&mut self, t: usize, delta: f64) {
        let elapsed = (self.step - self.i_stamp[t]) as f64;
        self.i_total[t] += elapsed * self.init[t];
        self.i_stamp[t] = self.step;
        self.init[t] += delta;
    }

    /// Finish averaging: every weight becomes its total over all steps
    /// divided by the step count.
    fn average(&mut self) {
        if self.step > 0 {
            let step = self.step;
            let steps = step as f64;
            let finish = |w: &mut f64, tot: &mut f64, stamp: usize| {
                *tot += (step - stamp) as f64 * *w;
                *w = *tot / steps;
            };
            for (i, (w, tot)) in self.weights.iter_mut().zip(&mut self.w_total).enumerate() {
                finish(w, tot, self.w_stamp[i / self.k]);
            }
            for ((w, tot), &stamp) in self
                .trans
                .iter_mut()
                .zip(&mut self.t_total)
                .zip(&self.t_stamp)
            {
                finish(w, tot, stamp);
            }
            for ((w, tot), &stamp) in self
                .init
                .iter_mut()
                .zip(&mut self.i_total)
                .zip(&self.i_stamp)
            {
                finish(w, tot, stamp);
            }
        }
    }
}

/// Call `emit` with each feature string of position `i`, in a fixed
/// order. `lowers` holds the tokens' lowercase forms; the strings are
/// built in `buf`, which is reused across calls.
fn position_features(
    tokens: &[Token],
    lowers: &[String],
    i: usize,
    buf: &mut String,
    mut emit: impl FnMut(&str),
) {
    let mut feature = |parts: &[&str]| {
        buf.clear();
        for part in parts {
            buf.push_str(part);
        }
        emit(buf);
    };
    let lower = lowers[i].as_str();
    feature(&["bias"]);
    feature(&["w=", lower]);
    feature(&["shape=", &word_shape(&tokens[i].text)]);
    feature(&["pre2=", prefix(lower, 2)]);
    feature(&["pre3=", prefix(lower, 3)]);
    feature(&["suf2=", suffix(lower, 2)]);
    feature(&["suf3=", suffix(lower, 3)]);
    if lower.chars().all(|c| c.is_ascii_digit()) {
        feature(&["all-digit"]);
    }
    if tokens[i]
        .text
        .chars()
        .next()
        .is_some_and(|c| c.is_uppercase())
    {
        feature(&["init-cap"]);
    }
    if i == 0 {
        feature(&["BOS"]);
    } else {
        feature(&["w-1=", &lowers[i - 1]]);
    }
    if i + 1 == tokens.len() {
        feature(&["EOS"]);
    } else {
        feature(&["w+1=", &lowers[i + 1]]);
    }
}

/// The first `n` characters of `s`.
fn prefix(s: &str, n: usize) -> &str {
    s.char_indices().nth(n).map_or(s, |(at, _)| &s[..at])
}

/// The last `n` characters of `s`.
fn suffix(s: &str, n: usize) -> &str {
    let skip = s.chars().count().saturating_sub(n);
    s.char_indices().nth(skip).map_or("", |(at, _)| &s[at..])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SlotAnnotation;

    fn slot_example(prefix: &str, slot: &str, value: &str, suffix: &str) -> NluExample {
        let text = format!("{prefix}{value}{suffix}");
        NluExample {
            text,
            intent: "inform".into(),
            slots: vec![SlotAnnotation {
                slot: slot.into(),
                start: prefix.len(),
                end: prefix.len() + value.len(),
                value: value.into(),
            }],
        }
    }

    fn training_data() -> Vec<NluExample> {
        let movies = [
            "Forrest Gump",
            "Heat",
            "Alien",
            "The Godfather",
            "Casablanca",
            "Up",
        ];
        let counts = ["2", "3", "4", "5", "7"];
        let mut data = Vec::new();
        for m in movies {
            data.push(slot_example(
                "i want to watch ",
                "movie_title",
                m,
                " tonight",
            ));
            data.push(slot_example("the movie title is ", "movie_title", m, ""));
            data.push(slot_example("show me ", "movie_title", m, " please"));
        }
        for c in counts {
            data.push(slot_example("i need ", "no_tickets", c, " tickets"));
            data.push(slot_example("book ", "no_tickets", c, " seats for me"));
        }
        data.push(NluExample::plain("hello there", "greet"));
        data.push(NluExample::plain("thanks a lot", "thank"));
        data
    }

    #[test]
    fn learns_slot_patterns() {
        let tagger = SlotTagger::train(&training_data());
        // Unseen movie name in a seen carrier phrase.
        let spans = tagger.extract("i want to watch Blade Runner tonight");
        assert_eq!(spans.len(), 1, "spans: {spans:?}");
        assert_eq!(spans[0].slot, "movie_title");
        assert_eq!(spans[0].value, "Blade Runner");
        // Digit slot generalizes by shape.
        let spans = tagger.extract("i need 6 tickets");
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].slot, "no_tickets");
        assert_eq!(spans[0].value, "6");
    }

    #[test]
    fn no_slots_in_plain_text() {
        let tagger = SlotTagger::train(&training_data());
        assert!(tagger.extract("hello there").is_empty());
        assert!(tagger.extract("").is_empty());
    }

    #[test]
    fn bio_constraint_holds_on_arbitrary_input() {
        let tagger = SlotTagger::train(&training_data());
        for text in [
            "watch watch tickets tickets 4 4 Gump Gump",
            "tonight i want 9 Heat please tickets",
            "Alien Alien Alien",
        ] {
            let tokens = crate::text::tokenize(text);
            let tags = tagger.tag(&tokens);
            let mut prev: Option<&str> = None;
            for tag in &tags {
                if let Some(slot) = tag.strip_prefix("I-") {
                    let ok = prev.is_some_and(|p| {
                        p.strip_prefix("B-") == Some(slot) || p.strip_prefix("I-") == Some(slot)
                    });
                    assert!(ok, "invalid BIO sequence {tags:?} on `{text}`");
                }
                prev = Some(tag);
            }
        }
    }

    #[test]
    fn bio_mask_follows_the_prefix_rule() {
        let tags: Vec<String> = ["O", "B-a", "I-a", "B-b", "I-b"]
            .iter()
            .map(|t| t.to_string())
            .collect();
        let mask = bio_mask(&tags);
        let allowed = |prev: Option<usize>, next: usize| mask[prev.map_or(0, |p| p + 1) * 5 + next];
        // Sentence start: anything but an inside tag.
        assert_eq!(
            (0..5).map(|t| allowed(None, t)).collect::<Vec<_>>(),
            [true, true, false, true, false]
        );
        // `I-a` continues only `B-a` and `I-a`.
        assert_eq!(
            (0..5).map(|p| allowed(Some(p), 2)).collect::<Vec<_>>(),
            [false, true, true, false, false]
        );
        assert_eq!(
            (0..5).map(|p| allowed(Some(p), 4)).collect::<Vec<_>>(),
            [false, false, false, true, true]
        );
        // `O` and `B-x` may follow anything.
        assert!((0..5).all(|p| allowed(Some(p), 0) && allowed(Some(p), 1)));
    }

    #[test]
    fn feature_ids_widen_past_u16() {
        let mut ids = FeatureIds::Narrow(Vec::new());
        for id in [0, 7, 65_535] {
            ids.push(id);
        }
        assert!(matches!(&ids, FeatureIds::Narrow(v) if v == &[0, 7, 65_535]));
        ids.push(65_536);
        ids.push(3);
        assert!(matches!(&ids, FeatureIds::Wide(v) if v == &[0, 7, 65_535, 65_536, 3]));
    }

    #[test]
    fn training_is_deterministic() {
        let data = training_data();
        let a = SlotTagger::train(&data);
        let b = SlotTagger::train(&data);
        for text in ["i want to watch Heat tonight", "book 4 seats for me"] {
            assert_eq!(a.extract(text), b.extract(text));
        }
    }

    #[test]
    fn fits_training_data_well() {
        let data = training_data();
        let tagger = SlotTagger::train(&data);
        let mut correct = 0;
        let mut total = 0;
        for ex in &data {
            let spans = tagger.extract(&ex.text);
            total += ex.slots.len();
            correct += ex.slots.iter().filter(|s| spans.contains(s)).count();
        }
        assert!(
            correct as f64 >= total as f64 * 0.9,
            "train recall too low: {correct}/{total}"
        );
    }
}
